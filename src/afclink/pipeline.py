"""End-to-end scenario engine: source -> fiber -> conversion -> shutter ->
memory -> detection -> histogram.

Each batch of shutter cycles is one ``run_batch``: the source draws the
pairs, ``herald_arm`` turns their herald photons into detected heralds,
``signal_arm`` carries their signal photons through the gate the heralds
command, the memory and the signal detector, and ``run_batch`` fills the
histogram.  Both arms tally into one integer count vector per chunk.

Event budget
------------
Most pairs lose both photons before either detector: at 10 km and a
conversion efficiency of 0.558 the signal photon reaches the gate with
p_s = 0.35 per mode and the herald photon is detected (before dead time)
with p_h = p_s * eta_herald = 0.18.  A pair whose photons are marked
independently by their survival splits into four independent Poisson
processes (colouring theorem; Kingman, *Poisson Processes*, 1993,
sec. 5.1): both photons survive, the herald only, the signal only, or
neither.  The source draws the pairs whose herald survives, at
``rate * sum(w * p_h)`` with modes weighted by ``w * p_h``, and one uniform
per drawn pair keeps its signal photon with chance p_s; only those draw a
correlation delay.  ``pairs_generated`` still counts every pair the source
emitted: the pairs it does not draw are added as one Poisson count per
batch.

A long run at realistic rates also carries ~1e9 converter-noise photons;
almost none of them can ever enter the histogram, which only pairs signal
detections with heralds inside the configured delay range.  The engine
therefore materializes noise exactly where it can matter.

The reach
---------
Signal-arm noise is drawn on the reach: the windows within
``ScenarioConfig.signal_reach`` = [lo, hi) of each detected herald, about
2.7 us.  Each detected herald h carries its own Poisson draw PP_h on
[h + lo, h + hi) at the reach rate lambda_x (the arm's noise plus the
signal-only pairs), and ``reach_points`` keeps each point x inside the
windows with chance 1/k(x), k(x) the detected heralds whose reach holds x:
exactly a Poisson process at lambda_x on the union of the reaches
(superposition, then independent thinning; Kingman, *Poisson Processes*,
1993, sec. 2.2 and 5.1).  The points join the pair photons in one gate test
(pass where the gate is open, else with probability ``extinction``) and
keep their jitter at the signal detector, where the intensity has edges
every microsecond (the reach and the gate), aligned with the histogram's.

The sparse herald stream
------------------------
Herald-arm noise arrives at its detected rate lambda (thinning by the
detector efficiency is exact).  At the flagship it is 98 % of the heralds,
and lambda_x (hi - lo) = 0.054, so 95 % of the noise heralds' own draws are
empty.  Marked by whether its PP_h, taken on the whole reach, holds a
point, the noise splits into independent Poisson processes N1, at
lambda (1 - e^-lambda_x (hi - lo)), and N0 (Kingman 1993, sec. 5.1).
``herald_arm`` draws the pair heralds, the darks and N1 in full, and N0
only on the set U where an N0 herald can meet something drawn:

- a dead time and a reach around each drawn herald, and for a pair herald
  its signal photon's inverse reach, within the delay margin;
- the inverse reach [x - hi, x - lo] of each P2 photon (below);
- the inverse histogram range of each signal dark, so the signal darks are
  drawn ahead of the memory, first on the signal-detection stream.

Every herald photon (pair, N1 and N0) takes the jitter in one ``detect``
run, and the darks are its only unjittered clicks.  A drawn herald and an
N0 herald that meets it each move by up to the herald detector's
``jitter_margin``, so U's rows are padded by two margins.  U is a union of
rows of one width (``intervals.length_below`` measures it), and N0 is
independent of everything that decides U, so drawing it on U alone is
exact: one draw on every row, each point kept with chance 1/(the rows that
hold it).  ``reach_points`` then draws PP_h the same way: Poisson for a
pair herald or a dark, Poisson given that it holds a point for N1 (a first
point at a truncated exponential offset, Poisson after it), and empty for
N0.  A herald lost to dead time has no reach, and its PP_h is dropped.  A
flagship batch draws about 4.5 k heralds instead of 61 k.

The signal-only pairs
---------------------
The signal-only pairs (62 % of the pairs with a surviving photon) are
independent of every herald, so they too are drawn only where a herald can
see them.  ``inner_f`` is each window less the jitter margin (8 sigma) plus
the delay margin m = 36 tau_c (``ScenarioConfig.delay_margin``) at its
start, and less the echo delay plus both margins at its end.  A Laplace
pair delay exceeds m with chance e^-36 = 2.3e-16, so inside inner_f their
photons' memory-entry intensity is flat.  Their entry times fall in three sets:

- **P1**, inner_f inside the reach: the reach draw runs at the summed rate,
  and one uniform per point marks it noise or mode k;
- **P2**, outside inner_f: pair times drawn in the edge zones (``zones``, the
  windows less inner_f shrunk by m) take their delays, and those whose
  photon lands outside inner_f join the photon-level path;
- **P3**, inner_f outside every reach: ``far_lengths`` gives its expected
  length per lock step, cut at ``dt * k`` (the convention of
  ``LockRunResult.step_at``), and ``far_outcomes`` draws one Poisson count
  per (lock step, mode).

A P3 photon does not need its photon-level path:

- the gate is open with certainty: the reach around each herald holds every
  closure the herald commands (``ScenarioConfig.signal_reach``);
- every exit it can take (out of band at entry, prompt, echo) lands, jitter
  included, in its own window;
- none of its clicks can enter the histogram, which pairs a signal click
  only with the heralds whose reach holds the photon;
- it cannot shadow a click that does, since the reach also covers one
  signal dead time before ``tau_min``.

``far_outcomes`` therefore draws, after the Poisson counts, one multinomial
over the memory's branches per group of counts with alike chances
(``memory.branch_counts``), then one binomial per detectable kind for the
detector efficiency, on the memory stream after the photon-level uniforms.
An ideal lock is a zero residual on the lock grid, so one path serves every
lock.  The counts join ``memory_outcomes``, ``detected_outcomes`` and
``signal_by_origin.pair``.  Every photon the engine draws takes the one
photon-level path.

Approximations
--------------
Besides the e^-36 delay tail, these remain:

- P3 clicks take no part in dead time, neither lost to an earlier click nor
  shadowing a later one; that raises ``signal_detected`` by at most the
  signal click rate during the windows x the dead time (2.3e3/s x 50 ns =
  1.1e-4 at 14 mW pump and 2e4 pairs/s).
- A dead-time chain longer than the one dead time the reach covers, or than
  U's padding around a drawn herald, is cut.  That is second order in click
  rate x dead time (Müller 1973), which ``ScenarioConfig`` caps at 1e-2 for
  either detector (flagship: 5.2e-4 signal, 5.1e-4 herald).
- N0 outside U is only counted, at the rate lambda0 / (1 + lambda0 tau) of a
  non-paralyzable detector that sees N0 alone.  An arrival outside U that
  an N0 herald inside U would silence, or the reverse, is missed: a bias of
  order (lambda tau)^2, 2.5e-7 per herald at the flagship.
- P3 takes its expected length.  A point x of inner_f lies outside every
  reach while no herald arrives in [x - hi, x - lo], with chance
  exp(-r ov(x)), r the herald arrival rate (pairs, noise and darks) and ov
  the overlap of that interval with x's window (Poisson coverage; Hall,
  *Introduction to the Theory of Coverage Processes*, 1988).  The mean is
  exact but for a dead time that hides every arrival of the interval, of
  order (r tau)^2.  The count drops the variance term rate^2 Var(L) of the
  uncovered length L, and P1 and P3 lose their anticorrelation of the same
  size; against P3's Poisson variance that is about rate r (hi - lo)^2:
  1.0e-5 at the flagship, 1.9e-4 at 14 mW pump and 2e4 pairs/s.

``tests/test_reference.py`` checks these shortcuts against a brute-force run
that materializes every noise photon and carries every pair photon through
the gate, the lock residual, the memory and the detector.  Detection is
active only during transmission phases (the preparation light makes the
detectors unusable during pit burning), so preparation-phase photons are
dropped at source.

Randomness is split into one stream per (stage, batch): an SFC64 generator
seeded from its own ``SeedSequence`` spawn key ``(stage, batch)``.  Toggling
one stage never perturbs another stage's draws, the order in which the arms
run does not matter, and batched execution is reproducible event for event.

Memory
------
A batch's working set (tracemalloc peak) is 0.3 MB at the noise-bound
bundled points and 1.2 MB at 14 mW pump and 2e4 pairs/s, where pair
heralds dominate; it is freed when the batch ends.  ``run_batch`` and the
arms drop each array once its last reader is done, and ``signal_arm``
builds the gate's closures before the photons' arrays join them: the
pair-rich peak of a 12 s batch would be 1.9 MB without that.  glibc's
malloc returns the top of its heap to the kernel once more than its trim
threshold (128 kB at start-up) is free there, so each batch would fault the
same pages in again, about 200 minor faults per 12 s batch at that
pair-rich point.  ``run_range`` therefore allocates and frees one
``_HEAP_FLOOR_BYTES`` (2 MiB) block before its batches: glibc then raises
its dynamic mmap threshold to that size and its trim threshold to twice it
(mallopt(3), ``M_MMAP_THRESHOLD``), so up to 4 MiB of freed batch memory
stays mapped, and a batch faults in about 15 pages while the heap settles;
a larger working set is trimmed as before.  A 1 MiB block holds the
pair-rich batch as well (14.4 against 14.6 faults per batch), but its 2 MiB
trim threshold leaves that working set less than 2x of headroom.  Fixing
a threshold instead would switch the dynamic adjustment off.  On other
allocators the block is a plain allocation.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import intervals as iv
from .channel import as_closures, gate_passes
from .config import ScenarioConfig
from .detection import (
    ORIGIN_CONVERSION_NOISE,
    ORIGIN_DARK_COUNT,
    ORIGIN_PAIR,
    CoincidenceHistogram,
    accumulate_histogram,
    detect,
    heralds_in_range,
)
from .lockchain import LockChainConfig, LockRunResult, simulate_lock_run
from .memory import (
    KIND_ECHO,
    KIND_LOST,
    KIND_OUT_OF_BAND,
    KIND_PROMPT,
    branch_counts,
    exit_times,
    storage_branches,
)
from .source import pair_delays, sample_pairs

# stage ids: the first entry of each stream's SeedSequence spawn key
_S_LOCK = 0
_S_SOURCE = 1
_S_CORRELATION = 2
_S_HERALD_NOISE = 3
_S_HERALD_DETECT = 4
_S_SIGNAL_NOISE = 5
_S_GATE_LEAK = 6  # the one gate test of pair photons and signal-arm noise
_S_MEMORY = 7
_S_SIGNAL_DETECT = 8

# the herald arm's origin code of an N1 noise herald, whose own reach draw
# holds a point (module docstring); it is tallied as conversion noise, and
# ORIGIN_CONVERSION_NOISE marks N0, whose reach draw is empty
_ORIGIN_N1 = 3

# freed once before a chunk's batches, it raises glibc's heap-trim floor to
# twice its size (module docstring, Memory)
_HEAP_FLOOR_BYTES = 2 << 20

# a batch's shutter cycles span this long: 20 cycles at the bundled 0.6 s
# cycle, so a simulated hour is 300 whole batches.  A longer batch spreads
# its fixed cost (a stream per stage and a few dozen array calls) over more
# cycles; at 12 s the pair-rich working set is a third of the heap-trim
# floor (module docstring, Memory)
_BATCH_SECONDS = 12.0

# slots of a chunk's count vector: two blocks indexed by the ORIGIN_* codes,
# two indexed by the KIND_* codes, then two scalars
_N_ORIGIN = ORIGIN_DARK_COUNT + 1
_N_KIND = KIND_LOST + 1
_HERALD_ORIGIN = 0
_SIGNAL_ORIGIN = _HERALD_ORIGIN + _N_ORIGIN
_MEMORY_KIND = _SIGNAL_ORIGIN + _N_ORIGIN  # pair photons at the memory
_DETECTED_KIND = _MEMORY_KIND + _N_KIND  # detected pair photons
_PAIRS = _DETECTED_KIND + _N_KIND
_NOISE_IN_ECHO = _PAIRS + 1
_N_SLOTS = _NOISE_IN_ECHO + 1

_ORIGIN_NAMES = (
    (ORIGIN_PAIR, "pair"), (ORIGIN_CONVERSION_NOISE, "conversion_noise"), (ORIGIN_DARK_COUNT, "dark_count")
)
_KIND_NAMES = ((KIND_ECHO, "echo"), (KIND_PROMPT, "prompt"), (KIND_OUT_OF_BAND, "out_of_band"))


def _tally(vec: np.ndarray, slot: int, width: int, codes: np.ndarray) -> None:
    """Add how often each code occurs in ``codes`` to the block at ``slot``."""
    vec[slot:slot + width] += np.bincount(codes, minlength=width)


def _counters(vec: np.ndarray) -> dict:
    """The report's nested counters from a run's count vector."""

    def block(slot: int, names: tuple) -> dict:
        return {name: int(vec[slot + code]) for code, name in names}

    return {
        "pairs_generated": int(vec[_PAIRS]),
        "heralds_detected": int(vec[_HERALD_ORIGIN:_HERALD_ORIGIN + _N_ORIGIN].sum()),
        "heralds_by_origin": block(_HERALD_ORIGIN, _ORIGIN_NAMES),
        "signal_detected": int(vec[_SIGNAL_ORIGIN:_SIGNAL_ORIGIN + _N_ORIGIN].sum()),
        "signal_by_origin": block(_SIGNAL_ORIGIN, _ORIGIN_NAMES),
        "memory_outcomes": block(_MEMORY_KIND, _KIND_NAMES),
        "detected_outcomes": block(_DETECTED_KIND, _KIND_NAMES),
        "noise_in_echo_window": int(vec[_NOISE_IN_ECHO]),
    }


def _spawn_seed(base_seed: int, tag: int, index: int) -> int:
    """One integer seed from ``base_seed`` for the (tag, index) spawn key."""
    return int(np.random.SeedSequence(entropy=base_seed, spawn_key=(tag, index)).generate_state(1)[0])


def _stream(seed: int, stage: int, batch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(stage, batch)))
    )


@dataclass
class RawRunResult:
    """Accumulated pipeline output before report assembly."""

    histogram: CoincidenceHistogram
    counts: dict
    transmission_time: float
    lock_result: LockRunResult  # the run's lock realisation, a zero residual under an ideal lock


def lock_run(cfg: ScenarioConfig, duration: float) -> LockRunResult:
    """The document's lock realisation over ``duration`` seconds, at its
    ``lock.dt``: the residual every run of ``cfg`` adds to its photons and
    ``afclink lockcheck`` writes.  An ideal lock is a zero residual on the
    lock grid and runs no chain; a simulated lock with a null chain runs
    the default ``LockChainConfig()``."""
    lock = cfg.lock
    if lock.mode == "ideal":
        return LockRunResult(lock.dt, np.zeros(round(duration / lock.dt) + 1), {})
    chain = LockChainConfig() if lock.config is None else lock.config
    return simulate_lock_run(chain, duration, lock.dt, _spawn_seed(cfg.seed, _S_LOCK, 0))


def _draw_on_rows(centres, lo, hi, rate, rng) -> tuple[np.ndarray, np.ndarray]:
    """A Poisson draw at ``rate`` on each row [c + lo, c + hi) around the
    sorted ``centres``: one draw on the rows' summed length, one row picked
    per point.  Returns the points and the index of each point's row."""
    n = len(centres)
    row = rng.integers(0, max(n, 1), rng.poisson(rate * (hi - lo) * n))
    return centres[row] + (lo + (hi - lo) * rng.random(len(row))), row


def _thin_to_union(x, centres, lo, hi, windows, rng) -> np.ndarray:
    """The points ``x`` inside ``windows``, each kept with chance 1/k, k the
    rows [c + lo, c + hi) around the sorted ``centres`` that hold it: one
    Poisson process on the rows' union (superposition, then thinning)."""
    x = x[iv.contains(windows, x)]
    k = heralds_in_range(centres, x, lo, hi)[1]
    return x[rng.random(len(x)) * k < 1.0]


class _Engine:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.mode_offsets = cfg.source.mode_offsets()
        # per mode: the signal photon reaches the gate with p_s; the herald
        # photon is detected (before dead time) with p_h = p_s * eta_herald
        self.p_signal = cfg.signal_survival
        p_herald = self.p_signal * cfg.detectors.herald.efficiency
        self.herald_source = cfg.source.thinned(p_herald)
        self.signal_only = cfg.source.thinned(self.p_signal * (1.0 - p_herald))
        self.signal_only_rates = self.signal_only.total_pair_rate * self.signal_only.weights()
        self.lost_pair_rate = max(0.0, cfg.source.total_pair_rate - self.herald_source.total_pair_rate)
        # a point of the reach draw is a signal-only pair of mode <= k with
        # chance pair_marks[k], else noise (a link with neither draws none)
        self.reach_rate = float(self.signal_only.total_pair_rate + cfg.converter.arm_noise_rate)
        self.pair_marks = np.cumsum(self.signal_only_rates) / (self.reach_rate or 1.0)
        # the sparse herald stream (module docstring): a herald's own reach
        # draw holds a point with chance reach_hit, which splits the herald
        # noise into N1 and N0
        lo, hi = cfg.signal_reach
        det = cfg.detectors.herald
        noise = cfg.converter.arm_noise_rate * det.efficiency
        self.reach_hit = -math.expm1(-self.reach_rate * (hi - lo))
        self.n1_rate = noise * self.reach_hit
        self.n0_rate = noise * math.exp(-self.reach_rate * (hi - lo))
        # U's half-width around a drawn herald: its dead time, the inverse
        # reach of its reach points and, for a pair herald, that of its signal
        # photon within the delay margin, plus its and an N0 herald's jitter
        self.herald_pad = max(hi - lo, det.dead_time, max(hi, -lo) + cfg.delay_margin) + 2 * det.jitter_margin
        # every herald arrival, at which P3's coverage is taken
        self.herald_arrival_rate = self.herald_source.total_pair_rate + noise + det.dark_rate
        # inner_f and its core, shrunk by the delay margin m (module docstring)
        m = cfg.delay_margin
        margin = cfg.detectors.signal.jitter_margin + m
        self.inner_guard = np.array([margin, -(cfg.memory.echo_delay + margin)])
        self.core_guard = self.inner_guard + [m, -m]
        self.n_cycles = int(math.ceil(cfg.duration / cfg.shutter.cycle_period))
        per_batch = max(1, int(round(_BATCH_SECONDS / cfg.shutter.cycle_period)))
        self.batches = [
            (lo, min(lo + per_batch, self.n_cycles)) for lo in range(0, self.n_cycles, per_batch)
        ]
        self.lock_result = lock_run(cfg, cfg.duration)
        # the first and the last lock step each batch touches
        self.batch_steps = self.lock_result.step_at(np.array(self.batches) * cfg.shutter.cycle_period)

    # -- one batch ---------------------------------------------------------

    def run_batch(self, b: int, hist: CoincidenceHistogram, vec: np.ndarray) -> None:
        cfg = self.cfg
        lo, hi = self.batches[b]
        windows = cfg.shutter.transmission_windows(lo, hi, cfg.duration)
        inner, edges = self.zones(windows)

        # source: the pairs whose herald photon survives, timed at their
        # arrival, a count of the others, then the signal-only pairs of the
        # edge zones
        rng = _stream(cfg.seed, _S_SOURCE, b)
        t_pairs, mode_idx = sample_pairs(self.herald_source, windows, rng)
        both = rng.random(len(t_pairs)) < self.p_signal[mode_idx]
        vec[_PAIRS] += len(t_pairs) + rng.poisson(self.lost_pair_rate * iv.total_length(windows))
        edge_t, edge_mode = sample_pairs(self.signal_only, edges, rng)
        n_both = np.count_nonzero(both)
        signal_t = np.concatenate([t_pairs[both], edge_t])
        signal_t += pair_delays(cfg.source, len(signal_t), _stream(cfg.seed, _S_CORRELATION, b))
        signal_mode = np.concatenate([mode_idx[both], edge_mode])
        # an edge pair's photon that lands in inner_f is left to the draws there
        keep = np.concatenate([np.ones(n_both, dtype=bool), ~iv.contains(inner, signal_t[n_both:])])
        signal_t, signal_mode = signal_t[keep], signal_mode[keep]
        # each array goes as soon as its last reader is done, which keeps a
        # batch's working set inside the heap-trim floor (module docstring)
        del mode_idx, both, edge_t, edge_mode, keep
        # the signal darks go ahead of the memory: the heralds they can pair
        # with must be drawn
        det_rng = _stream(cfg.seed, _S_SIGNAL_DETECT, b)
        darks = iv.sample_poisson(windows, cfg.detectors.signal.dark_rate, det_rng)

        h_times, h_org = self.herald_arm(b, windows, t_pairs, signal_t[n_both:], darks, vec)
        del t_pairs
        det_t, det_org = self.signal_arm(b, windows, inner, h_times, h_org, signal_t, signal_mode, darks, det_rng, vec)

        # histogram and the per-herald noise flux into the echo window
        accumulate_histogram(hist, h_times, det_t)
        _, n = heralds_in_range(h_times, det_t[det_org == ORIGIN_CONVERSION_NOISE], *cfg.shutter.echo_window)
        vec[_NOISE_IN_ECHO] += int(n.sum())

    def zones(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``inner_f`` of ``windows`` and their edge zones: each window less
        its core, inner_f shrunk by the delay margin, as two rows.  A pair
        whose photon can enter outside inner_f starts in an edge zone."""
        inner = windows + self.inner_guard
        core = windows + self.core_guard
        # a window shorter than its guards keeps rows of no length inside it
        for z in (inner, core):
            np.minimum(z[:, 0], windows[:, 1], out=z[:, 0])
            np.maximum(z[:, 1], z[:, 0], out=z[:, 1])
        return inner, np.stack([windows[:, 0], core[:, 0], core[:, 1], windows[:, 1]], axis=1).reshape(-1, 2)

    def herald_arm(self, b, windows, pair_t, edge_t, signal_darks, vec):
        """The sparse herald stream: the pair heralds that survived the
        fiber, the converter and the detector efficiency, the darks and N1
        in full, N0 on the set U where something drawn can see it, and only
        counted elsewhere (module docstring).  ``edge_t`` are the P2
        photons' memory-entry times.  Returns the sorted detected herald
        times and their origins, with ``_ORIGIN_N1`` for N1."""
        cfg = self.cfg
        det = cfg.detectors.herald
        lo, hi = cfg.signal_reach
        rng = _stream(cfg.seed, _S_HERALD_NOISE, b)
        n1 = iv.sample_poisson(windows, self.n1_rate, rng)
        det_rng = _stream(cfg.seed, _S_HERALD_DETECT, b)
        darks = iv.sample_poisson(windows, det.dark_rate, det_rng)
        # U: rows [c - pad, c + pad) around every drawn herald, every P2
        # photon's inverse reach [x - hi, x - lo] and every signal dark's
        # inverse histogram range
        h, pad = cfg.histogram, self.herald_pad
        centres = np.concatenate([
            pair_t, darks, n1, edge_t - 0.5 * (lo + hi), signal_darks - 0.5 * (h.tau_min + h.tau_max)
        ])
        centres.sort(kind="stable")
        # N0 on U: a Poisson draw on each row, thinned to the union
        n0, _ = _draw_on_rows(centres, -pad, pad, self.n0_rate, rng)
        n0 = _thin_to_union(n0, centres, -pad, pad, windows, rng)
        # N0 outside U sees only itself: its registered count, at the rate of
        # a non-paralyzable detector
        below = iv.length_below(centres, pad, windows)
        del centres
        outside = max(0.0, iv.total_length(windows) - (below[:, 1] - below[:, 0]).sum())
        vec[_HERALD_ORIGIN + ORIGIN_CONVERSION_NOISE] += rng.poisson(
            self.n0_rate * outside / (1.0 + self.n0_rate * det.dead_time)
        )
        # every herald photon takes the jitter in one run
        org = np.repeat(
            np.array([ORIGIN_PAIR, _ORIGIN_N1, ORIGIN_CONVERSION_NOISE], np.uint8), [len(pair_t), len(n1), len(n0)]
        )
        h_times, h_org = detect(np.concatenate([pair_t, n1, n0]), det, darks, det_rng, org)
        counts = np.bincount(h_org, minlength=_ORIGIN_N1 + 1)
        vec[_HERALD_ORIGIN:_HERALD_ORIGIN + _N_ORIGIN] += counts[:_N_ORIGIN]
        vec[_HERALD_ORIGIN + ORIGIN_CONVERSION_NOISE] += counts[_ORIGIN_N1]
        return h_times, h_org

    def reach_points(self, heralds, origins, windows, rng) -> np.ndarray:
        """The sorted signal-arm points on the reach of the sorted detected
        ``heralds``: each herald's own Poisson draw PP_h at the reach rate on
        [h + lo, h + hi), given that it holds a point where ``origins`` is
        ``_ORIGIN_N1`` and empty where it is ORIGIN_CONVERSION_NOISE; then
        the points inside ``windows``, each kept with chance 1/k(x), k(x) the
        number of ``heralds`` whose reach holds x.  The kept points are a
        Poisson process at the reach rate on the windows within the union of
        the reaches (superposition, then independent thinning)."""
        lo, hi = self.cfg.signal_reach
        # PP_h on every reach (an N0 herald's points are dropped below)
        x, row = _draw_on_rows(heralds, lo, hi, self.reach_rate, rng)
        # given that it holds a point, an N1 herald's PP_h has its first
        # point at a truncated exponential offset, and is Poisson after it
        n1 = np.flatnonzero(origins == _ORIGIN_N1)
        offset = np.full(len(heralds), lo)
        offset[n1] -= np.log1p(-self.reach_hit * rng.random(len(n1))) / self.reach_rate
        keep = (x >= heralds[row] + offset[row]) & (origins[row] != ORIGIN_CONVERSION_NOISE)
        x = np.concatenate([heralds[n1] + offset[n1], x[keep]])
        return np.sort(_thin_to_union(x, heralds, lo, hi, windows, rng))

    def signal_arm(self, b, windows, inner, h_times, h_org, signal_t, mode_idx, darks, det_rng, vec):
        """Signal-arm noise, gate, lock residual, memory and detection of the
        signal photons the source drew (``signal_t``, memory-entry times),
        the signal-only pairs of P1 and the converter noise on the reach;
        the in-window detection times (sorted) and origins.  The P3 photons
        are only counted, by ``far_outcomes`` (see the module docstring)."""
        cfg = self.cfg
        rng = _stream(cfg.seed, _S_SIGNAL_NOISE, b)
        # one draw on the reach at the summed rate of the converter noise
        # (beam-splitter share) and the signal-only pairs; each point is
        # noise or a pair of mode k, and a pair point outside inner_f is left
        # to the edge draws
        points = self.reach_points(h_times, h_org, windows, rng)
        # the gate's closures, before the photons' arrays join the working set
        closed = as_closures(h_times, cfg.shutter)
        u = rng.random(len(points))
        pair = u < self.pair_marks[-1]
        mark = np.searchsorted(self.pair_marks, u[pair], side="right")
        inside = iv.contains(inner, points[pair])
        pair_t = np.concatenate([signal_t, points[pair][inside]])
        pair_mode = np.concatenate([mode_idx, mark[inside]])
        n_t = points[~pair]
        # one gate test, commanded by the heralds, for the pair photons and the noise
        entry_off = np.concatenate([self.mode_offsets[pair_mode], cfg.converter.noise_offsets(len(n_t), rng)])
        entry_t = np.concatenate([pair_t, n_t])
        entry_org = np.repeat(np.array([ORIGIN_PAIR, ORIGIN_CONVERSION_NOISE], np.uint8), [len(pair_t), len(n_t)])
        del points, u, pair, mark, pair_t, pair_mode, n_t
        rng = _stream(cfg.seed, _S_GATE_LEAK, b)
        passes = gate_passes(entry_t, windows, closed, cfg.shutter.extinction, rng)
        entry_t, entry_off, entry_org = entry_t[passes], entry_off[passes], entry_org[passes]
        del closed, passes
        # the lock-chain residual shifts every photon against the comb
        entry_off = entry_off + self.lock_result.residual_at(entry_t)

        mem = cfg.memory
        mem_rng = _stream(cfg.seed, _S_MEMORY, b)
        kinds = storage_branches(entry_off, self.mode_offsets, mem.afc, mem.inhomogeneous, mem_rng)
        exits = exit_times(entry_t, kinds, mem.afc, mem.slow_light_delay)
        _tally(vec, _MEMORY_KIND, _N_KIND, kinds[entry_org == ORIGIN_PAIR])
        first, last = self.batch_steps[b]
        self.far_outcomes(first, self.far_lengths(windows, inner, first, last), mem_rng, vec)
        det = cfg.detectors.signal
        # the detector efficiency thins the photons that leave the memory
        clicks = kinds != KIND_LOST
        clicks[clicks] = det_rng.random(np.count_nonzero(clicks)) < det.efficiency
        det_t, det_org, det_kind = detect(exits[clicks], det, darks, det_rng, entry_org[clicks], kinds[clicks])
        in_win = iv.contains(windows, det_t)
        # still sorted by time, as accumulate_histogram requires
        det_t, det_org, det_kind = det_t[in_win], det_org[in_win], det_kind[in_win]
        _tally(vec, _SIGNAL_ORIGIN, _N_ORIGIN, det_org)
        _tally(vec, _DETECTED_KIND, _N_KIND, det_kind[det_org == ORIGIN_PAIR])
        return det_t, det_org

    def far_lengths(self, windows, inner, first, last) -> np.ndarray:
        """P3's expected length in each lock step ``first .. last``: the
        ``inner`` rows outside every herald's reach.  A point x lies in no
        reach while no herald arrives in [x - hi, x - lo], which meets only
        x's own window (the preparation phase outlasts the reach), with
        chance exp(-r ov(x)), r the herald arrival rate and ov(x) that
        interval's overlap with the window (Poisson coverage; Hall, 1988).
        The inner rows are cut at the grid points ``dt * k`` between the
        steps (the convention of ``step_at``) and the closed-form integral
        of that chance is read at each cut."""
        cuts = self.lock_result.dt * np.arange(first, last + 2, dtype=np.float64)
        cuts[[0, -1]] = -np.inf, np.inf
        x = np.minimum(np.maximum(cuts[:, None], inner[:, 0]), inner[:, 1])
        lo, hi = self.cfg.signal_reach
        r = self.herald_arrival_rate

        def vacant(s):  # the integral of exp(-r t) over [0, s]
            return -np.expm1(-r * s) / r if r > 0 else s

        # ov rises from w0 + lo to c2, stays at m until c3 and falls to 0 at
        # w1 + hi; inner starts after w0 + lo and ends before w1 + hi
        c1, c4 = windows[:, 0] + lo, windows[:, 1] + hi
        c2 = np.minimum(windows[:, 0] + hi, windows[:, 1] + lo)
        c3 = np.maximum(windows[:, 0] + hi, windows[:, 1] + lo)
        m = c2 - c1
        below = (
            vacant(np.minimum(x, c2) - c1)
            + np.exp(-r * m) * (np.clip(x, c2, c3) - c2)
            + vacant(m) - vacant(c4 - np.maximum(x, c3))
        ).sum(axis=1)
        # a difference of lengths may round a step's zero length below zero
        return np.maximum(np.diff(below), 0.0)

    def far_outcomes(self, first, lengths, rng, vec) -> None:
        """Tally the memory outcomes and detections of the P3 photons of
        ``lengths[i]`` seconds in lock step ``first + i``: a Poisson count
        per (lock step, mode), one multinomial over the memory's branches
        per group of alike chances (``branch_counts``), then one binomial
        per detectable kind for the signal detector's efficiency."""
        counts = rng.poisson(lengths[:, None] * self.signal_only_rates)
        offsets = (self.lock_result.residual[first:first + len(lengths), None] + self.mode_offsets).ravel()
        mem = self.cfg.memory
        stored = branch_counts(counts.ravel(), offsets, self.mode_offsets, mem.afc, mem.inhomogeneous, rng)
        eff = self.cfg.detectors.signal.efficiency
        detected = [rng.binomial(k, eff) for k in stored[:KIND_LOST].tolist()]
        vec[_MEMORY_KIND:_MEMORY_KIND + _N_KIND] += stored
        vec[_DETECTED_KIND:_DETECTED_KIND + KIND_LOST] += detected
        vec[_SIGNAL_ORIGIN + ORIGIN_PAIR] += sum(detected)

    # -- a run -------------------------------------------------------------

    def run_range(self, chunk: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Histogram counts and count vector of batches ``chunk[0] .. chunk[1] - 1``."""
        hist = CoincidenceHistogram(**asdict(self.cfg.histogram))
        vec = np.zeros(_N_SLOTS, dtype=np.int64)
        np.empty(_HEAP_FLOOR_BYTES, dtype=np.uint8)  # freed at once: raises the trim floor
        for b in range(*chunk):
            self.run_batch(b, hist, vec)
        return hist.counts, vec

    def run(self, workers: int | None = None) -> RawRunResult:
        """Run every batch, in one chunk per worker.

        Every batch draws from its own streams, one SFC64 generator per
        (stage, batch) ``SeedSequence`` spawn key, and the parts are summed
        as integers, so the result is bit-identical for every worker count.
        """
        cfg = self.cfg
        n = len(self.batches)
        edges = np.linspace(0, n, _effective_workers(workers, n) + 1).astype(int)
        parts = _map_chunks(self, [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])])
        windows = cfg.shutter.transmission_windows(0, self.n_cycles, cfg.duration)
        return RawRunResult(
            histogram=CoincidenceHistogram(**asdict(cfg.histogram), counts=sum(p[0] for p in parts)),
            counts=_counters(sum(p[1] for p in parts)),
            transmission_time=iv.total_length(windows),
            lock_result=self.lock_result,
        )


def _effective_workers(workers: int | None, n_batches: int) -> int:
    import multiprocessing

    if workers is None:
        workers = min(2, multiprocessing.cpu_count())
    if n_batches < 4 or not hasattr(os, "fork"):
        return 1
    return min(workers, n_batches)


def _map_chunks(engine: _Engine, chunks: list[tuple[int, int]]) -> list:
    """``engine.run_range`` over the chunks: in this process for one chunk,
    else on a fork pool with one worker per chunk."""
    if len(chunks) == 1:
        return list(map(engine.run_range, chunks))
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(len(chunks)) as pool:
        return pool.map(engine.run_range, chunks)


def run_raw(cfg: ScenarioConfig, workers: int | None = None) -> RawRunResult:
    """Execute the pipeline and return the raw histogram and counts."""
    return _Engine(cfg).run(workers=workers)
