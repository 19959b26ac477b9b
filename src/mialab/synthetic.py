"""Seeded Gaussian-mixture generators for synthetic pools and datasets.

Each component is one Gaussian blob with its own label (or a shared label
rule applied to the sampled features). A zero covariance is allowed and
makes every draw equal to the component mean, which is how the degenerate
constant-pool scenario is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataio import Column, Dataset, Rows, Schema, distinct
from .errors import MialabError, _integer, _number, _refused
from .rngs import _keyed_generator
from .splits import MixturePools


@dataclass(frozen=True)
class GaussianComponent:
    mean: tuple
    cov: object = 1.0  # scalar variance, diagonal vector, or full matrix
    label: "int | None" = None

    def __post_init__(self):
        if not len(self.mean):
            raise _refused("mean", "must have at least one entry")
        mean = tuple(_finite_number(f"mean[{j}]", v) for j, v in enumerate(self.mean))
        if self.label is not None:
            _integer("label", self.label, 0)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "_covariance", self._checked_covariance())

    def covariance(self) -> np.ndarray:
        """The (d, d) covariance matrix, read-only; it was built and checked
        once, with the component."""
        return self._covariance

    def _checked_covariance(self) -> np.ndarray:
        """The (d, d) covariance matrix; refuses a cov that is not one."""
        d = len(self.mean)
        try:
            cov = np.array(self.cov, dtype=np.float64)
        except (TypeError, ValueError):
            raise _refused("cov", f"expected a number, list or matrix, got {self.cov!r}") from None
        if not np.all(np.isfinite(cov)):
            raise _refused("cov", "has a non-finite entry")
        if cov.ndim == 0:
            cov = np.full(d, float(cov))
        if cov.ndim == 1:
            if cov.shape != (d,):
                raise _refused("cov", f"a diagonal covariance needs {d} entries, got {cov.shape}")
            # A diagonal matrix's eigenvalues are its entries.
            lowest, cov = cov.min(), np.diag(cov)
        elif cov.shape != (d, d):
            raise _refused("cov", f"shape {cov.shape} does not match dim {d}")
        else:
            lowest = np.linalg.eigvalsh((cov + cov.T) / 2).min()
        if lowest < -1e-12:
            raise _refused("cov", "must be positive semidefinite")
        cov.flags.writeable = False
        return cov


def _finite_number(field: str, value) -> float:
    """value as a float; refuses one that is not a finite number."""
    number = _number(field, value)
    if not math.isfinite(number):
        raise _refused(field, f"expected a finite number, got {value!r}")
    return number


def halfspace_label(weights: Sequence[float], bias: float = 0.0) -> Callable:
    """Label rule: 1 on the positive side of the hyperplane, else 0.
    Refuses a weight or bias that is not a finite number, naming it
    (weights[1], bias)."""
    w = np.array([_finite_number(f"weights[{j}]", v) for j, v in enumerate(weights)])
    bias = _finite_number("bias", bias)

    def rule(x: np.ndarray) -> int:
        return int(float(x @ w) + bias > 0)

    return rule


def mixture_samples(
    components: Sequence[GaussianComponent],
    n_per_component: int,
    seed,
    label_rule: "Callable | None" = None,
) -> list[Rows]:
    """Draw n_per_component samples from every component, one Rows per
    component; deterministic given the seed. Refuses an n_per_component
    that is not an integer >= 1, a component whose mean's length differs
    from the first's, and one without a label when no label_rule is given,
    naming it (components[1].mean, components[1].label)."""
    if not components:
        raise MialabError("need at least one mixture component")
    _integer("n_per_component", n_per_component, 1)
    dim = len(components[0].mean)
    for k, comp in enumerate(components):
        if len(comp.mean) != dim:
            raise _refused(f"components[{k}].mean", f"must have {dim} entries, as components[0] "
                           f"does, got {len(comp.mean)}")
        if comp.label is None and label_rule is None:
            raise _refused(f"components[{k}].label", "required when no label_rule is given")
    rng = _keyed_generator(seed, 31)
    pools: list[Rows] = []
    for comp in components:
        mean = np.asarray(comp.mean, dtype=np.float64)
        cov = comp.covariance()
        draws = rng.multivariate_normal(mean, cov, size=n_per_component, method="svd")
        if comp.label is not None:
            labels = [comp.label] * n_per_component
        else:
            labels = [int(label_rule(x)) for x in draws]
        pools.append(Rows(draws, labels))
    return pools


def synthetic_mixture(
    components: Sequence[GaussianComponent],
    n_per_component: int,
    seed,
    label_rule: "Callable | None" = None,
) -> MixturePools:
    """Disjoint sample pools, one per mixture component; pool 0 holds the
    members."""
    pools = mixture_samples(components, n_per_component, seed, label_rule)
    return MixturePools(
        pools=tuple(pools),
        labels_of_pools=tuple(f"component-{k}" for k in range(len(pools))),
    )


def mixture_dataset(
    components: Sequence[GaussianComponent],
    n_per_component: int,
    seed,
    label_rule: "Callable | None" = None,
) -> Dataset:
    """All components flattened into one dataset with a generated schema."""
    pools = mixture_samples(components, n_per_component, seed, label_rule)
    samples = Rows.concat(pools)
    schema = Schema(
        columns=(
            *(Column(f"f{i}", "numeric") for i in range(samples.X.shape[1])),
            Column("label", "numeric", "label"),
        ),
        label_classes=max(2, len(distinct(samples.y))),
    )
    return Dataset(schema=schema, samples=samples)
