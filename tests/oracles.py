"""Test-side oracles: checks that only the tests run against the engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sparsevolve.autodiff import Tape, Tensor, backward


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    worst: tuple[str, int] | None = None
    checked: int = 0
    per_tensor: dict[str, float] = field(default_factory=dict)


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    samples: int = 8,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values;
    it is invoked once under a tape for the analytic pass and twice per
    sampled coordinate for the difference quotient. Coordinates are sampled
    per tensor (all coordinates when a tensor has at most ``samples``).
    """
    rng = rng or np.random.default_rng(0)
    for p in params.values():
        p.zero_grad()
    with Tape():
        loss = loss_fn()
        backward(loss)
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}

    report = GradCheckReport(max_rel_err=0.0, tol=tol, passed=True)
    for name, p in params.items():
        numel = p.data.size
        if numel <= samples:
            coords = np.arange(numel)
        else:
            coords = rng.choice(numel, size=samples, replace=False)
        flat = p.data.reshape(-1)
        worst_here = 0.0
        for c in coords:
            c = int(c)
            orig = flat[c]
            flat[c] = orig + eps
            up = loss_fn().item()
            flat[c] = orig - eps
            down = loss_fn().item()
            flat[c] = orig
            fd = (up - down) / (2 * eps)
            an = float(analytic[name].reshape(-1)[c])
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            report.checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst = (name, c)
        report.per_tensor[name] = worst_here
    report.passed = report.max_rel_err < tol
    return report
