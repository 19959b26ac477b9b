"""Seeded Gaussian-mixture generators for synthetic pools and datasets.

Each component is one Gaussian blob with its own label (or a shared label
rule applied to the sampled features). A zero covariance is allowed and
makes every draw equal to the component mean, which is how the degenerate
constant-pool scenario is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataio import Column, Dataset, Rows, Schema, distinct
from .errors import MialabError
from .rngs import as_generator, subseed
from .splits import MixturePools


@dataclass(frozen=True)
class GaussianComponent:
    mean: tuple
    cov: object = 1.0  # scalar variance, diagonal vector, or full matrix
    label: "int | None" = None

    def covariance(self) -> np.ndarray:
        d = len(self.mean)
        cov = np.asarray(self.cov, dtype=np.float64)
        if not np.all(np.isfinite(cov)):
            raise MialabError("covariance has a non-finite entry")
        if cov.ndim == 0:
            cov = float(cov) * np.eye(d)
        elif cov.ndim == 1:
            if cov.shape != (d,):
                raise MialabError(f"diagonal covariance needs {d} entries, got {cov.shape}")
            cov = np.diag(cov)
        elif cov.shape != (d, d):
            raise MialabError(f"covariance shape {cov.shape} does not match dim {d}")
        if np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) < -1e-12:
            raise MialabError("covariance must be positive semidefinite")
        return cov


def halfspace_label(weights: Sequence[float], bias: float = 0.0) -> Callable:
    """Label rule: 1 on the positive side of the hyperplane, else 0."""
    w = np.asarray(weights, dtype=np.float64)

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
    component; deterministic given the seed."""
    if not components:
        raise MialabError("need at least one mixture component")
    if n_per_component < 1:
        raise MialabError(f"n_per_component must be >= 1, got {n_per_component}")
    rng = as_generator(subseed(seed, 31) if isinstance(seed, (int, np.integer)) else seed)
    pools: list[Rows] = []
    for k, comp in enumerate(components):
        if comp.label is None and label_rule is None:
            raise MialabError(f"component {k} has no label and no label rule was given")
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
