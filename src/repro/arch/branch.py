"""The steady-state branch mispredict rate of the composition engine.

The loop engine needs, for each conditional branch with taken-probability
``p``, the long-run mispredict rate of the core's predictor. For a two-bit
saturating counter under i.i.d. Bernoulli(p) outcomes this is the stationary
mispredict probability of a 4-state Markov chain, computed exactly in
:func:`two_bit_mispredict_rate`. The functional two-bit counter it is
validated against lives with the test oracles (``tests/oracle.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["two_bit_mispredict_rate"]


@lru_cache(maxsize=4096)
def two_bit_mispredict_rate(taken_prob: float) -> float:
    """Exact steady-state mispredict rate of a two-bit counter.

    The counter's state is a birth-death Markov chain over {0,1,2,3} with
    up-probability ``p`` (taken). We solve for the stationary distribution
    and return P(predict != outcome).
    """
    p = float(taken_prob)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"taken probability {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    q = 1.0 - p
    # Transition matrix rows = current state, columns = next state.
    transition = np.array(
        [
            [q, p, 0, 0],
            [q, 0, p, 0],
            [0, q, 0, p],
            [0, 0, q, p],
        ]
    )
    # Stationary distribution: left eigenvector for eigenvalue 1.
    eigvals, eigvecs = np.linalg.eig(transition.T)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, idx])
    pi = pi / pi.sum()
    # States 0,1 predict not-taken (mispredict with prob p); 2,3 predict
    # taken (mispredict with prob q).
    return float((pi[0] + pi[1]) * p + (pi[2] + pi[3]) * q)
