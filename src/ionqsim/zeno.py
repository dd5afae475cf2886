"""Quantum Zeno experiment engine.

Survival and net-transition formulas for a resonantly driven two-level
system under repeated projective probing, plus trajectory simulators
for the fractionated pi-pulse protocol and for long alternating
drive/probe sequences with run-length statistics.

All drives are resonant (the protocol nulls the detuning), so between
probes the state is a z-eigenstate rotated by the pulse area theta.
From an eigenstate a probe outcome flips with probability
sin^2(theta/2), which lets whole trajectories be sampled exactly with
one uniform draw per probe.
"""

import math

import numpy as np

from .bloch import BLOCK, DetectionModel, detect


def survival_probability(theta_per_step: float, q) -> float:
    """P_00 = cos^(2q)(theta/2): probability of q consecutive equal
    outcomes under drive steps of area theta between probes."""
    if np.any(np.asarray(q) < 0):
        raise ValueError("q must be >= 0")
    c2 = math.cos(0.5 * theta_per_step) ** 2
    return c2 ** np.asarray(q) if np.ndim(q) else float(c2**q)


def net_transition_probability(theta_total: float, n: int) -> float:
    """P_e1 = (1 - cos^n(theta/n)) / 2: ensemble net transition
    probability after n nonselective probes (intermediate back-and-forth
    transitions included)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 0.5 * (1.0 - math.cos(theta_total / n) ** n)


def _flip_probability(theta: float) -> float:
    return math.sin(0.5 * theta) ** 2


def _true_states(rng, shape, p_flip: float) -> np.ndarray:
    """True "on" states of probe chains that start in |0>, as a bool
    array of the given shape whose last axis runs along each chain.

    Each probe flips the state with probability p_flip: the uniforms of
    rng.random(shape) are drawn BLOCK at a time, in the same order, and
    the state is the running parity of the flips along the last axis.
    """
    states = np.empty(shape, dtype=bool)
    flat = states.reshape(-1)
    for start in range(0, flat.size, BLOCK):
        block = flat[start:start + BLOCK]
        np.less(rng.random(block.size), p_flip, out=block)
    return np.logical_xor.accumulate(states, axis=-1, out=states)


def _check_protocol(n_fractions: int, prep_efficiency: float) -> None:
    if n_fractions < 1:
        raise ValueError(f"n_fractions must be >= 1, got {n_fractions}")
    if not (0.0 < prep_efficiency <= 1.0):
        raise ValueError(f"prep_efficiency must lie in (0, 1], got {prep_efficiency}")


def simulate_fractionated_pi(n_fractions: int, sequences: int, seed,
                             total_area: float = math.pi,
                             detection: DetectionModel | None = None,
                             prep_efficiency: float = 1.0) -> tuple[float, np.ndarray]:
    """Run the fractionated pi-pulse protocol.

    Each sequence prepares |0> (with prep_efficiency), then alternates
    n_fractions resonant pulses of area total_area/n_fractions with
    projective z probes read out through the detection model (ideal by
    default).  Returns (survival_frequency, records) where records is a
    (sequences, n_fractions) bool array of observations and
    survival_frequency is the fraction of all-"off" sequences.
    """
    _check_protocol(n_fractions, prep_efficiency)
    if sequences < 1:
        raise ValueError(f"sequences must be >= 1, got {sequences}")
    rng = np.random.default_rng(seed)
    p_flip = _flip_probability(total_area / n_fractions)

    # draw order: preparation, drive flips, detection
    prepared_wrong = rng.random(sequences) >= prep_efficiency
    true_on = _true_states(rng, (sequences, n_fractions), p_flip)
    np.logical_xor(true_on, prepared_wrong[:, None], out=true_on)
    records = detect(true_on, detection or DetectionModel(), rng)
    survival = float(np.mean(~records.any(axis=1)))
    return survival, records


def corrected_survival(raw_frequency: float, n_fractions: int,
                       detection: DetectionModel | None = None,
                       prep_efficiency: float = 1.0) -> float:
    """Undo preparation and read-out losses in an all-"off" frequency.

    A surviving sequence is observed all-"off" only if it was prepared
    correctly and every one of its n true "off" results was read
    correctly, so the raw frequency is rescaled by
    1 / (prep_efficiency * eta0^n).  False-"off" read-outs of escaped
    sequences are neglected (they enter at order 1 - eta1).  Raises
    OverflowError, naming the losses, when the result is not a finite float.
    """
    _check_protocol(n_fractions, prep_efficiency)
    eta0 = (detection or DetectionModel()).eta0
    scale = prep_efficiency * eta0**n_fractions
    if not (scale and math.isfinite(raw_frequency / scale)):
        raise OverflowError(f"corrected survival overflows a float: prep_efficiency = "
                            f"{prep_efficiency:g}, eta0 = {eta0:g}, n = {n_fractions}")
    return raw_frequency / scale


def simulate_alternating(theta_per_step: float, n_pairs: int, seed,
                         detection: DetectionModel | None = None) -> np.ndarray:
    """Simulate n_pairs of (drive pulse of area theta, projective probe).

    The ion starts in |0>; each probe collapses the state, so the true
    outcome sequence is a two-state Markov chain with flip probability
    sin^2(theta/2) per pair.  Returns the (n_pairs,) bool record of
    observations, True = "on".

    All flip uniforms are drawn first, then every read-out, each in
    blocks of BLOCK draws from the one stream, so a seed gives the same
    record as whole-array draws would.  Apart from the two 1-byte
    arrays of true states and results (about 2 bytes per pair; one
    array with an ideal read-out, whose results are the true states),
    the working memory is one block.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    true_on = _true_states(rng, n_pairs, _flip_probability(theta_per_step))
    return detect(true_on, detection or DetectionModel(), rng)


def run_length_distribution(results: np.ndarray) -> tuple[dict[int, float], int]:
    """Normalized distribution U(q) of maximal runs of q equal results,
    and the number of complete runs it was normalized by.

    The trailing run is truncated by the end of the record and is
    excluded from the counts.  U(q)/U(1) estimates P_00(q-1).  The
    record is scanned one block at a time, so the working memory is one
    block's change flags and run ends plus the histogram.
    """
    results = np.asarray(results)
    if results.size == 0:
        raise ValueError("record is empty")
    counts = np.zeros(1, dtype=np.int64)
    last_end = -1
    for start in range(0, results.size - 1, BLOCK):
        stop = min(start + BLOCK, results.size - 1)
        # each change between neighbouring results ends a complete run
        ends = start + np.flatnonzero(results[start + 1:stop + 1] != results[start:stop])
        block = np.bincount(np.diff(ends, prepend=last_end), minlength=counts.size)
        block[:counts.size] += counts
        counts = block
        last_end = ends[-1] if ends.size else last_end
    total = int(counts.sum())
    return {int(q): counts[q] / total for q in range(1, counts.size) if counts[q] > 0}, total


def run_length_ratio(dist: dict[int, float], q: int) -> float:
    """U(q)/U(1), the empirical estimator of P_00(q-1).

    Raises FloatingPointError when the record held no complete run of
    length 1 (as with no drive, or a record of one result): U(1) is then
    0 and the ratio is undefined.
    """
    if 1 not in dist:
        raise FloatingPointError("U(q)/U(1) is undefined: the record has no complete run "
                                 "of length 1")
    return dist.get(q, 0.0) / dist[1]
