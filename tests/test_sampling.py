import dataclasses
import hashlib
import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

from vibronic import __version__, model, sampling
from vibronic.analysis import BroadeningKernel, EnergyGrid, broaden, fidelity, normalize
from vibronic.fixtures import (anthracene_like_12, fine_acene_like, large_acene_like,
                               pentacene_like_8)
from vibronic.io import read_spectrum, write_spectrum
from vibronic.model import (TICKS_PER_CM1, LineSpectrum, Mode, Molecule, energy_keys, hazards,
                            key_energies)
from vibronic.sampling import (
    IDEAL_DETECTOR,
    DetectorModel,
    SamplerConfig,
    poisson_draw,
    sample_mode,
    sample_spectrum,
    substream,
)
from vibronic.sos import SosConfig, build_reference_spectrum, mode_distribution


def molecule(hr, energies=None, e00=0.0):
    energies = energies or [500.0 + 100.0 * i for i in range(len(hr))]
    modes = tuple(Mode(energy=e, huang_rhys=s) for e, s in zip(energies, hr))
    return Molecule("m", e00, "absorption", modes)


def apply_detector(j, d, rng, max_quanta=None):
    """Oracle: the detector chain photon by photon.

    Loss thins each photon with probability `efficiency` (binomial),
    then dark counts add, then a click detector saturates at 1, then
    the optional cap applies.  The sampler instead draws the thinned
    count directly as Poisson(efficiency * S).
    """
    out = np.asarray(j)
    if d.efficiency < 1.0:
        out = rng.binomial(out, d.efficiency)
    if d.dark_mean > 0.0:
        out = out + rng.poisson(d.dark_mean, size=out.shape)
    if d.threshold_mode:
        out = np.minimum(out, 1)
    if max_quanta is not None:
        out = np.minimum(out, max_quanta)
    return out


def assert_same_counts(a, b):
    """Two samples of per-event counts agree in frequency for every
    count value, within 4 sigma of the difference of two proportions."""
    n = a.size
    for v in np.union1d(np.unique(a), np.unique(b)):
        pa, pb = (a == v).mean(), (b == v).mean()
        p = (pa + pb) / 2.0
        assert abs(pa - pb) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n) + 1e-12, v


def traced(call):
    """`call()`'s result, and the peak and the final bytes tracemalloc
    traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


def oracle_counts(s, d, seed, n, max_quanta=None):
    rng = substream(seed, 1, 0)
    return apply_detector(poisson_draw(s, rng, size=n), d, rng, max_quanta)


def plan_order(m, cfg, d=IDEAL_DETECTOR):
    """The 1-based mode positions in the order the sampler splits them:
    ascending recorded mean, equal means in position order."""
    return sorted(range(1, m.n_modes + 1),
                  key=lambda i: d.recorded(m.modes[i - 1].huang_rhys, cfg.max_quanta)[0])


def replay(m, cfg, d=IDEAL_DETECTOR, order=None):
    """Oracle: the sampler's cells, replayed line by line in pure Python.

    Modes are replayed in `order` (1-based positions; the plan's order
    by default); a mode that records 0 draws nothing.  Each (mode i,
    chunk) cell draws scalar binomials from `substream(seed, i, chunk)`,
    in one of two ways.  A mode with a recorded mean <= `_TREE_MEAN` or
    a top of 1 walks every line from c0 = 0.  A larger mean first takes
    its tree from the plan (`sampling._law`; its P(left) per level is
    held to the law by `test_tree_is_the_law`) a level at a time: each
    line in key order, and at each of its nodes k left to right, sends
    Binomial(events, P(left)) to node 2k of the next level and the rest
    to node 2k + 1; after the last level leaf j = lo + k < c0 takes
    key + j * t.  Then the lines whose events reached leaf c0 (the top,
    or the law's 2**-54 end) walk.  A walk takes its lines in key order
    at j = c0, c0 + 1, ...: Binomial(events left, h_j), h_j from
    `model.hazards(mean, top, c0)`, all that is left at h_j = 1.
    """
    hist = {}
    for ci, size in sampling._chunks(cfg.events):
        lines = {int(energy_keys(m.e00)): size}
        for i in order or plan_order(m, cfg, d):
            mode = m.modes[i - 1]
            mean, top = d.recorded(mode.huang_rhys, cfg.max_quanta)
            if mean == 0.0 or top == 0:
                continue
            *_, (_, _, c0, tree) = sampling._law(i, 1, mean, top, 0, 1)
            t, rng = int(energy_keys(mode.energy)) * m.sign, substream(cfg.seed, i, ci)
            moved, walkers = {}, sorted(lines.items())
            if tree is not None:
                levels, lo = tree
                level, walkers = [(k, 0, n) for k, n in walkers], []
                for prob in levels:
                    deeper = []
                    for k, node, n in level:
                        left = rng.binomial(n, prob[node])
                        deeper += [(k, 2 * node + side, e)
                                   for side, e in enumerate((left, n - left)) if e]
                    level = deeper
                for k, node, n in level:
                    if (j := lo + node) < c0:
                        moved[k + j * t] = moved.get(k + j * t, 0) + n
                    else:
                        walkers.append((k, n))
            for j, h in zip(itertools.count(c0), hazards(mean, top, c0)):
                if not walkers:
                    break
                live = []
                for k, n in walkers:
                    e = n if h == 1.0 else rng.binomial(n, h)
                    if e:
                        moved[k + j * t] = moved.get(k + j * t, 0) + e
                    if n > e:
                        live.append((k, n - e))
                walkers = live
            lines = moved
        for k, n in lines.items():
            hist[k] = hist.get(k, 0) + n
    keys = sorted(hist)
    return np.array(keys, dtype=np.int64), np.array([hist[k] for k in keys])


def scaled(m, factor):
    """`m` with every Huang-Rhys factor times `factor`."""
    modes = tuple(dataclasses.replace(x, huang_rhys=factor * x.huang_rhys) for x in m.modes)
    return dataclasses.replace(m, modes=modes)


def huge_means():
    """Three modes at recorded means 1e4, 2e3 and 0.3: two huge-mean trees
    and one walk."""
    return molecule([1e4, 2e3, 0.3], energies=[100.0, 230.0, 517.0])


class TestPoissonDraw:
    def test_zero_mean_always_zero(self):
        rng, fresh = substream(0, 1, 0), substream(0, 1, 0)
        assert poisson_draw(0.0, rng) == 0
        assert not poisson_draw(0.0, rng, size=1000).any()
        assert rng.random() == fresh.random()  # numpy drew nothing: the stream has not moved

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_draw(-0.1, substream(0, 1, 0))

    def test_zero_fraction_quarter_mean(self):
        n = 10**6
        draws = poisson_draw(0.25, substream(123, 1, 0), size=n)
        p = math.exp(-0.25)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs((draws == 0).mean() - p) < tol

    def test_sample_mean_unit(self):
        n = 10**6
        draws = poisson_draw(1.0, substream(321, 1, 0), size=n)
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(n)


class TestSubstream:
    def test_is_the_cells_stream(self):
        # the thread's generator, reset to cell (i, c) after another cell
        # (or call) left it mid-buffer, draws what a fresh `substream(seed,
        # i, c)` draws
        key = sampling._key(7)
        rng = sampling._cell_stream(sampling._generator(), key, 3, 1)
        for i, c in ((2, 1), (5, 0), (2, 1), (2**64 - 1, 2)):
            rng.integers(2**32, size=3, dtype=np.uint32)  # leaves a half-used word
            rng.random()  # and a half-used Philox block
            cell, fresh = sampling._cell_stream(rng, key, i, c), substream(7, i, c)
            for draw in (lambda g: g.integers(2**32, size=5, dtype=np.uint32),
                         lambda g: g.binomial(np.arange(100), 0.3),
                         lambda g: g.poisson(2.5, 1000), lambda g: g.random(3)):
                assert np.array_equal(draw(cell), draw(fresh))

    @pytest.mark.parametrize("args, match", [
        ((0, 1.5, 0), "mode_index must be an integer, got 1.5"),
        ((0, True, 0), "mode_index must be an integer, got True"),
        ((0, 0, 0), "mode_index must be >= 1, got 0"),
        ((0, 1, 1.5), "chunk_index must be an integer, got 1.5"),
        ((0, 1, -1), r"chunk_index must be in \[0, 2\*\*64\), got -1"),
        ((0, 1, 2**64), r"chunk_index must be in \[0, 2\*\*64\)"),
        ((-1, 1, 0), "seed must be >= 0, got -1"),
    ], ids=["mode-float", "mode-bool", "mode-0", "chunk-float", "chunk-negative", "chunk-2**64",
            "seed-negative"])
    def test_refuses_by_name(self, args, match):
        # mode 1.5 and True silently opened mode 1's stream; chunk -1 overflowed
        with pytest.raises(ValueError, match=match):
            substream(*args)

    def test_numpy_arguments_open_the_python_ints_stream(self):
        want = substream(7, 2**63 + 5, 3).random(4)
        assert np.array_equal(substream(np.uint64(7), np.uint64(2**63 + 5), np.int8(3)).random(4),
                              want)

    def test_scalar_binomials_draw_the_array_bits(self):
        # a cell of few lines draws one scalar binomial a line, in line
        # order, for each split step: numpy gives the bits of one array draw,
        # for n in [0, 1e6] (small n too, where it draws by inversion) and
        # p in (0, 1), and leaves the stream at the same place
        g = np.random.default_rng(26)
        for trial in range(300):
            lines = int(g.integers(1, 20))
            n = np.where(g.random(lines) < 0.5, g.integers(0, 30, lines),
                         g.integers(0, 10**6, lines, endpoint=True))
            p = float(g.uniform(1e-12, 1.0))
            array, scalar = substream(9, trial + 1, 0), substream(9, trial + 1, 0)
            assert array.binomial(n, p).tolist() == [scalar.binomial(k, p) for k in n.tolist()]
            assert array.random() == scalar.random()
            # and with one p a line, as a tree level draws
            ps = g.uniform(1e-12, 1.0, lines)
            assert (array.binomial(n, ps).tolist()
                    == [scalar.binomial(k, q) for k, q in zip(n.tolist(), ps.tolist())])
            assert array.random() == scalar.random()

    @pytest.mark.parametrize("i", [1, 2**64 - 1])
    def test_positions_past_2_64_keep_their_own_stream(self, i):
        # position i + 2**64 shares i's counter under another key
        a, b = (substream(7, k, 0).random(8) for k in (i, i + 2**64))
        assert not np.array_equal(a, b)
        assert np.array_equal(b, substream(7, i + 2**64, 0).random(8))
        assert not np.array_equal(substream(7, 1, 0).random(8), substream(7, 2, 0).random(8))
        assert not np.array_equal(substream(7, 1, 0).random(8), substream(7, 1, 1).random(8))


class TestHazards:
    def test_against_poisson(self):
        # h_j = P(J = j) / P(J >= j) wherever scipy's pmf is normal
        for s in np.append(np.geomspace(1e-9, 60.0, 200), 400.0):
            n = int(s + 10.0 * math.sqrt(s) + 30.0)
            h = np.fromiter(itertools.islice(hazards(s, None), n), float, n)
            assert ((h >= 0.0) & (h <= 1.0)).all(), s
            j = np.arange(n)
            want = scipy.stats.poisson.pmf(j, s) / scipy.stats.poisson.sf(j - 1, s)
            ok = scipy.stats.poisson.pmf(j, s) > 1e-250
            assert (np.abs(h[ok] - want[ok]) <= 1e-12 * want[ok]).all(), s

    def test_from_a_start(self):
        # the sampler starts a walk only at 0, at the top or above the mean,
        # where no head P(J < start) is needed: from there hazards(mean,
        # top, start) yields the bits hazards(mean, top) yields
        for s in (0.3, 1.2, 3.0, 40.0, 400.0):
            full = list(itertools.islice(hazards(s, None), int(s + 10 * math.sqrt(s) + 30)))
            for start in (int(s) + 1, int(s) + 7, int(s + 6 * math.sqrt(s)) + 1):
                assert list(itertools.islice(hazards(s, None, start), len(full) - start)) == (
                    full[start:]), (s, start)
            for top in (1, int(s) + 3):  # at or below the mean, and above it
                assert list(hazards(s, top, top)) == [1.0], (s, top)

    def test_a_top_at_the_start_sums_no_head(self, monkeypatch):
        # a cap far below a huge mean starts the walk at the top: h_top = 1
        # needs no P(J < top), which would take 1e7 pmf values
        monkeypatch.setattr(model, "fc_factor_1d", None)
        assert list(hazards(1e8, 10**7, 10**7)) == [1.0]

    def test_cap_takes_all_at_top(self):
        for s in (0.0, 0.3, 5.0):
            for top in (0, 1, 4):
                h = list(hazards(s, top))
                assert len(h) == top + 1 and h[-1] == 1.0, (s, top)


class TestTree:
    """A mode's planned tree (`sampling._law`) against the law."""

    @pytest.mark.parametrize("mean, top", [(150.0, None), (150.0, 160), (400.0, None),
                                           (1e4, 9950), (1e4, None), (1e8, None)])
    def test_tree_is_the_law(self, mean, top):
        # the leaves are the counts lo..c0-1, then the walk from c0, which
        # starts at the top or where the law left sums to under 2**-54, as
        # it does below lo; h_j < 1/2 on every leaf.  The tree is complete:
        # (c0 - lo).bit_length() levels over the leaves padded with zero
        # weights, and node k of a level, over leaves [k * 2**d, (k + 1) *
        # 2**d), sends its left half's share of the law to node 2k, summed
        # here afresh (0 where that half weighs nothing)
        *_, (_, _, c0, tree) = sampling._law(1, 1, mean, top, 0, 1)
        levels, lo = tree
        pmf = [model.fc_factor_1d(mean, j) for j in range(lo, c0 + int(10 * math.sqrt(mean)) + 60)]
        rest = (1.0 - scipy.stats.poisson.cdf(c0 - 1, mean) if c0 == top and c0 <= mean
                else math.fsum(pmf[c0 - lo:]))
        weights = pmf[:c0 - lo] + [rest]
        assert scipy.stats.poisson.cdf(lo - 1, mean) < 2.0**-54
        assert c0 == top or (c0 > mean and rest < 2.0**-54)
        tails = np.cumsum(weights[::-1])[::-1]  # P(J >= j), j = lo..c0
        assert (2.0 * np.array(weights[:-1]) < tails[:-1]).all()
        assert len(levels) == (c0 - lo).bit_length()
        weights += [0.0] * (2 ** len(levels) - len(weights))
        for depth, prob in enumerate(levels):
            span = 2 ** (len(levels) - depth)  # leaves a node
            assert prob.size == 2**depth
            halves = np.array([math.fsum(weights[a:a + span // 2])
                               for a in range(0, len(weights), span // 2)])
            share, total = halves[0::2], halves[0::2] + halves[1::2]
            want = np.divide(share, total, out=np.zeros_like(share), where=share > 0.0)
            # fc_factor_1d's log-space form holds ~1e-12 x the mean in relative terms
            assert (np.abs(prob - want) <= 1e-12 * (1 + mean) * want + 1e-300).all(), depth

    @pytest.mark.parametrize("mean, top", [(0.3, None), (0.69, 4), (0.8, None), (2.5, 2),
                                           (3.0, None), (3.0, 5), (40.0, None), (100.0, None),
                                           (5.0, 1), (1e4, 1)])
    def test_walk_alone(self, mean, top):
        # a recorded mean <= `_TREE_MEAN` (100) or a top of 1: no tree, one
        # walk from 0 with `model.hazards`' own h_j, as version 0.4.0 drew
        # means <= ln 2
        *_, (_, _, c0, tree) = sampling._law(1, 1, mean, top, 0, 1)
        assert tree is None and c0 == 0

    def test_a_tree_ends_at_its_law_end_or_top(self):
        # above `_TREE_MEAN` every planned tree's c0 is the law's 2**-54 end
        # or the top, where `hazards` needs no head, and h_j stays under
        # 1/2 on every leaf: the walk could take over no sooner (h_j first
        # reaches 1/2 near j = 2 x mean).  With `_TREE_MEAN` at 90 the
        # trees of means up to 92.95 hold leaves with h_j >= 1/2, and this
        # fails
        means = np.append(np.arange(sampling._TREE_MEAN + 0.25, 130.0, 0.25),
                          np.geomspace(130.0, 1e8, 17))
        for mean in means.tolist():
            for top in (None, math.floor(mean) - 3, math.floor(mean) + 1,
                        math.floor(mean + 3 * math.sqrt(mean))):
                *_, (_, _, c0, tree) = sampling._law(1, 1, mean, top, 0, 1)
                end = c0 > mean and scipy.stats.poisson.sf(c0 - 1, mean) < 2.0**-54
                assert c0 == top or end, (mean, top, c0)
                j = np.arange(max(tree[1], int(mean)), c0)  # below the mean h_j < 0.1 here
                h = scipy.stats.poisson.pmf(j, mean) / scipy.stats.poisson.sf(j - 1, mean)
                assert (h < 0.5).all(), (mean, top, j[h >= 0.5][:1])


class TestApplyDetector:
    """The sampler's recorded counts against the photon-by-photon oracle."""

    def test_ideal_is_identity(self):
        j = np.arange(10)
        assert np.array_equal(apply_detector(j, IDEAL_DETECTOR, substream(0, 1, 0)), j)
        # with no detector effects the sampler records the raw draws
        n = 10**4
        got = sample_mode(0.7, 1, SamplerConfig(events=n, seed=3))
        assert np.array_equal(got, oracle_counts(0.7, IDEAL_DETECTOR, 3, n))

    def test_threshold_saturates(self):
        d = DetectorModel(threshold_mode=True)
        assert apply_detector(5, d, substream(0, 1, 0)) == 1
        n = 10**5
        got = sample_mode(2.0, 1, SamplerConfig(events=n, seed=4), d)
        assert np.array_equal(got, oracle_counts(2.0, d, 4, n))

    def test_thinning_mean(self):
        n = 10**6
        d = DetectorModel(efficiency=0.8)
        got = sample_mode(0.25, 1, SamplerConfig(events=n, seed=77), d)
        want = oracle_counts(0.25, d, 78, n)
        mean = 0.8 * 0.25
        for out in (got, want):
            assert abs(out.mean() - mean) < 3.0 * math.sqrt(mean / n)
        assert_same_counts(got, want)

    def test_dark_counts_add(self):
        n = 10**5
        d = DetectorModel(dark_mean=0.5)
        got = sample_mode(0.0, 1, SamplerConfig(events=n, seed=78), d)
        want = oracle_counts(0.0, d, 79, n)
        for out in (got, want):
            assert abs(out.mean() - 0.5) < 3.0 * math.sqrt(0.5 / n)
        assert_same_counts(got, want)

    def test_max_quanta_cap(self):
        assert np.array_equal(
            apply_detector(np.array([0, 1, 5, 9]), IDEAL_DETECTOR, substream(0, 1, 0), 3),
            [0, 1, 3, 3],
        )
        n = 10**4
        got = sample_mode(2.5, 1, SamplerConfig(events=n, seed=5, max_quanta=3))
        assert np.array_equal(got, oracle_counts(2.5, IDEAL_DETECTOR, 5, n, max_quanta=3))

    def test_one_draw_of_the_recorded_law(self):
        # every detector records one Poisson(eta*S + dark) draw per
        # event from the cell's stream, clipped at min(K, 1 if click)
        n = 10**4
        d = DetectorModel(efficiency=0.7, dark_mean=0.3, threshold_mode=True)
        for k, top in ((None, 1), (0, 0), (3, 1)):
            got = sample_mode(0.9, 2, SamplerConfig(events=n, seed=6, max_quanta=k), d)
            want = np.minimum(poisson_draw(0.7 * 0.9 + 0.3, substream(6, 2, 0), n), top)
            assert np.array_equal(got, want)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.5)


class TestSampleMode:
    def test_zero_s_all_zero(self):
        cfg = SamplerConfig(events=10000, seed=5)
        assert not sample_mode(0.0, 1, cfg).any()

    def test_threshold_one_fraction(self):
        n = 10**6
        cfg = SamplerConfig(events=n, seed=9)
        out = sample_mode(0.25, 1, cfg, DetectorModel(threshold_mode=True))
        p = 1.0 - math.exp(-0.25)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(out.mean() - p) < tol
        assert set(np.unique(out)) <= {0, 1}

    def test_determinism(self):
        cfg = SamplerConfig(events=50000, seed=31)
        a = sample_mode(0.3, 2, cfg)
        b = sample_mode(0.3, 2, cfg)
        assert np.array_equal(a, b)

    def test_a_longer_call_extends_a_shorter_one(self):
        # every event comes from the mode's one stream, so the first n
        # counts of a longer call are the n-event call's, past 10^6 too
        def cfg(n):
            return SamplerConfig(events=n, seed=12, max_quanta=4)
        longer = sample_mode(1.5, 2, cfg(10**6 + 500))
        for n in (1, 10**6 - 1, 10**6 + 1):
            assert np.array_equal(sample_mode(1.5, 2, cfg(n)), longer[:n])

    def test_memory_is_one_array_of_counts(self):
        # one draw, capped in place: the call peaks at about its 8 B an
        # event.  Version 0.6.0 drew 10^6-event parts, capped each into a
        # copy and concatenated them, peaking near 16 B an event
        n = 2 * 10**6
        counts, peak, _ = traced(
            lambda: sample_mode(0.3, 1, SamplerConfig(events=n, seed=1, max_quanta=2)))
        assert counts.size == n
        assert peak < 1.2 * 8 * n, peak

    def test_per_photon_thinning_matches_direct_statistically(self):
        # every detector effect at once, capped: the sampler's direct
        # Poisson(eta*S) draw against photon-by-photon thinning
        n = 10**6
        d = DetectorModel(efficiency=0.7, dark_mean=0.1)
        direct = sample_mode(0.4, 1, SamplerConfig(events=n, seed=40, max_quanta=2), d)
        thinned = oracle_counts(0.4, d, 41, n, max_quanta=2)
        mean = 0.7 * 0.4 + 0.1
        uncapped = sample_mode(0.4, 1, SamplerConfig(events=n, seed=42), d)
        assert abs(uncapped.mean() - mean) < 3.0 * math.sqrt(mean / n)
        assert_same_counts(direct, thinned)


# explicit ids, so that adding or deleting a case renames no other
@pytest.mark.parametrize("kw, match", [
    pytest.param({"events": 0}, "events must be >= 1", id="kw0-events must be >= 1"),
    pytest.param({"events": 10, "max_quanta": -1}, "max_quanta must be >= 0",
                 id="kw2-max_quanta must be >= 0"),
    pytest.param({"events": 2**53 + 1}, r"<= 2\*\*53, got 9007199254740993",
                 id=r"kw3-<= 2\*\*53, got 9007199254740993"),
    pytest.param({"events": 10, "seed": -1}, "seed must be >= 0, got -1",
                 id="kw4-seed must be >= 0"),
    pytest.param({"events": 2.5}, "events must be an integer, got 2.5", id="events-float"),
    pytest.param({"events": True}, "events must be an integer, got True", id="events-bool"),
    pytest.param({"events": 1e6}, r"events must be an integer, got 1000000\.0",
                 id="events-1e6"),
    pytest.param({"events": 10, "seed": 1.0}, r"seed must be an integer, got 1\.0",
                 id="seed-float"),
    pytest.param({"events": 10, "seed": False}, "seed must be an integer, got False",
                 id="seed-bool"),
    pytest.param({"events": 10, "max_quanta": 1.5}, r"max_quanta must be an integer, got 1\.5",
                 id="max_quanta-float"),
    pytest.param({"events": 10, "max_quanta": True}, "max_quanta must be an integer, got True",
                 id="max_quanta-bool"),
])
def test_sampler_config_refuses(kw, match):
    with pytest.raises(ValueError, match=match):
        SamplerConfig(**kw)


def test_sampler_config_takes_numpy_integers():
    cfg = SamplerConfig(events=np.int64(5000), seed=np.uint32(3), max_quanta=np.int16(2))
    spec = sample_spectrum(molecule([0.3, 0.1]), cfg)
    assert int(spec.counts.sum()) == 5000


def test_sampler_config_fields():
    # the version fixes the chunking; no field schedules the work
    assert [f.name for f in dataclasses.fields(SamplerConfig)] == [
        "events", "seed", "max_quanta"]


class TestSampleSpectrum:
    def test_zero_mode_molecule(self):
        m = molecule([], e00=7777.0)
        spec = sample_spectrum(m, SamplerConfig(events=500, seed=2))
        assert list(spec.energies) == [7777.0]
        assert list(spec.counts) == [500]

    def test_one_mode_threshold_fractions(self):
        n = 10**6
        m = molecule([0.25], energies=[500.0])
        spec = sample_spectrum(
            m, SamplerConfig(events=n, seed=17), DetectorModel(threshold_mode=True)
        )
        frac = dict(zip(spec.energies.tolist(), (spec.counts / n).tolist()))
        p0 = math.exp(-0.25)
        assert abs(frac[0.0] - p0) < 0.0013
        assert abs(frac[500.0] - (1.0 - p0)) < 0.0013

    def test_counts_sum_to_events(self):
        m = molecule([0.3, 0.1])
        spec = sample_spectrum(m, SamplerConfig(events=12345, seed=3))
        assert int(spec.counts.sum()) == 12345 == spec.provenance["events"]
        assert spec.counts.dtype == np.int64
        assert np.array_equal(spec.counts, spec.intensities)

    def test_is_a_line_spectrum(self):
        # the analysis layer takes a sampled spectrum as it is
        spec = sample_spectrum(molecule([0.3, 0.1]), SamplerConfig(events=5000, seed=3))
        assert isinstance(spec, LineSpectrum)
        assert normalize(spec, "unit_l1").total == pytest.approx(1.0)
        assert fidelity(spec, spec) == pytest.approx(1.0)
        kernel = BroadeningKernel("gaussian", 20.0)
        assert len(broaden(spec, kernel, EnergyGrid.around(spec.energies, 20.0))) > 0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sample_spectrum(molecule([0.3]), SamplerConfig(events=100), workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_mean_opens_no_substream(self, workers, monkeypatch):
        # mode 2's mean is past numpy's Poisson limit: the call refuses it
        # before mode 1 (or any worker) opens a sub-stream, over 3 chunks
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 100)
        opened = []
        real = sampling._cell_stream
        monkeypatch.setattr(sampling, "_cell_stream", lambda *a: opened.append(a) or real(*a))
        with pytest.raises(ValueError, match=r"^mode 2: recorded Poisson mean must be in \[0, "):
            sample_spectrum(molecule([0.5, 2e19]), SamplerConfig(events=300), workers=workers)
        assert opened == []

    @pytest.mark.parametrize("draw", [
        pytest.param(lambda d: sample_spectrum(molecule([1e308]), SamplerConfig(events=10), d),
                     id="sample_spectrum"),
        pytest.param(lambda d: sample_mode(1e308, 1, SamplerConfig(events=10), d),
                     id="sample_mode"),
    ])
    def test_overflowing_recorded_mean_refused(self, draw):
        # S and dark_mean are each finite, but their sum overflows to inf:
        # `DetectorModel.recorded` refuses it, under a prefix naming the
        # mode alone, so the formula is named once
        want = r"^mode 1: efficiency \* s \+ dark_mean must be finite, got inf$"
        with pytest.raises(ValueError, match=want):
            draw(DetectorModel(dark_mean=1e308))

    def test_energies_on_lattice(self):
        m = molecule([0.5, 0.8], energies=[300.0, 700.0], e00=1000.0)
        spec = sample_spectrum(m, SamplerConfig(events=20000, seed=4))
        for e in spec.energies:
            r = e - 1000.0
            # representable as 300 a + 700 b with small non-negative ints
            ok = any(
                abs(r - (300.0 * a + 700.0 * b)) < 1e-9
                for a in range(20)
                for b in range(20)
            )
            assert ok, e

    def test_appending_zero_s_mode_bit_identical(self):
        cfg = SamplerConfig(events=30000, seed=8)
        m1 = molecule([0.3, 0.2])
        m2 = molecule([0.3, 0.2, 0.0])
        s1 = sample_spectrum(m1, cfg)
        s2 = sample_spectrum(m2, cfg)
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.counts, s2.counts)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_invisible(self, workers, monkeypatch):
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 9000)
        m = molecule([0.25, 0.1, 0.4])
        cfg = SamplerConfig(events=64000, seed=13)
        base = sample_spectrum(m, cfg, workers=1)
        par = sample_spectrum(m, cfg, workers=workers)
        assert np.array_equal(base.energies, par.energies)
        assert np.array_equal(base.counts, par.counts)

    def test_worker_count_invisible_with_trees(self, monkeypatch):
        # trees are planned once and only read by the worker threads
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 9000)
        m = molecule([0.25, 3.0, 400.0])
        cfg = SamplerConfig(events=64000, seed=13)
        base, par = (sample_spectrum(m, cfg, workers=w) for w in (1, 4))
        assert np.array_equal(base.energies, par.energies)
        assert np.array_equal(base.counts, par.counts)

    def test_concurrent_callers_get_single_threaded_bytes(self):
        # user threads that each call `sample_spectrum` at once, over 3
        # chunks and with or without workers of their own, each get the
        # bytes of the call alone: every thread draws through its own
        # Philox, which a cell resets before it draws
        m, cfg = large_acene_like(66), SamplerConfig(events=2 * 10**6 + 1, seed=5)
        alone = sample_spectrum(m, cfg)
        start = threading.Barrier(3)

        def calls(workers):
            start.wait()
            return [sample_spectrum(m, cfg, workers=workers) for _ in range(3)]

        with ThreadPoolExecutor(max_workers=3) as pool:
            for spec in itertools.chain(*pool.map(calls, [1, 2, 1])):
                assert spec.energies.tobytes() == alone.energies.tobytes()
                assert spec.counts.tobytes() == alone.counts.tobytes()

    @pytest.mark.parametrize("hr, energies", [
        ([0.5, 0.2, 0.8], [100.0, 300.0, 700.0]),
        ([0.8, 0.2, 0.5], [700.0, 300.0, 100.0]),
        ([0.5, 0.2, 0.8], [100.001, 300.37, 700.5]),  # cells 0.001 cm^-1 apart
    ])
    def test_streams_keyed_by_position(self, hr, energies, monkeypatch):
        # the mode at 1-based position i draws from sub-stream i of each
        # chunk, so the spectrum is the replay of the cell rule
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 7000)
        cfg = SamplerConfig(events=20000, seed=6)
        m = molecule(hr, energies=energies, e00=1000.0)
        spec = sample_spectrum(m, cfg)
        keys, counts = replay(m, cfg)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)

    @pytest.mark.parametrize("chunk_events", [7000, 10**6])  # 3 chunks merged, or 1 as it is
    @pytest.mark.parametrize("d", [IDEAL_DETECTOR, DetectorModel(efficiency=0.6, dark_mean=0.05)])
    def test_modes_split_in_ascending_mean(self, d, chunk_events, monkeypatch):
        # the file order is not ascending, and modes 2 and 4 tie: the
        # spectrum replays in the plan's order and not in the file's
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", chunk_events)
        m = molecule([0.8, 0.2, 0.5, 0.2], energies=[100.0, 300.0, 700.0, 1100.0], e00=1000.0)
        cfg = SamplerConfig(events=20000, seed=6)
        assert plan_order(m, cfg, d) == [2, 4, 3, 1]
        spec = sample_spectrum(m, cfg, d)
        keys, counts = replay(m, cfg, d)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)
        keys, counts = replay(m, cfg, d, order=[1, 2, 3, 4])
        assert not (np.array_equal(spec.energies, key_energies(keys))
                    and np.array_equal(spec.counts, counts))

    def test_binomial_work_follows_live_lines(self, monkeypatch):
        # 66 modes at 1e6 events: split low means first and draw only over
        # lines with events left (1.44M lines passed to binomial in file
        # order over every line; 0.37M now, the empty lines that pad a
        # draw over fewer than 1024 lines to a power of two included)
        drawn = []

        class Counting(np.random.Generator):
            def binomial(self, n, p, size=None):
                drawn.append(np.size(n))
                return super().binomial(n, p, size)

        monkeypatch.setattr(np.random, "Generator", Counting)
        spec = sample_spectrum(large_acene_like(66), SamplerConfig(events=10**6, seed=1))
        assert int(spec.counts.sum()) == 10**6
        assert 0 < sum(drawn) <= 500_000, sum(drawn)
        assert all(n & (n - 1) == 0 for n in drawn if n < sampling._CACHED_BYTES)

    @pytest.mark.parametrize("d, max_quanta, hr, energies", [
        pytest.param(IDEAL_DETECTOR, None, [0.5, 0.2, 0.8], [100.0, 300.0, 700.0], id="ideal"),
        pytest.param(DetectorModel(efficiency=0.7, dark_mean=0.1), 3, [0.5, 0.2, 0.8],
                     [100.0, 300.0, 700.0], id="loss-dark-K3"),
        pytest.param(DetectorModel(threshold_mode=True), None, [0.5, 0.2, 0.8],
                     [100.0, 300.0, 700.0], id="click"),
        pytest.param(IDEAL_DETECTOR, None, [0.5, 0.2, 0.8], [100.001, 300.37, 700.5],
                     id="ideal-incommensurate"),
        pytest.param(DetectorModel(efficiency=0.7, dark_mean=0.1), 3, [0.5, 0.2, 0.8],
                     [100.001, 300.37, 700.5], id="loss-dark-K3-incommensurate"),
        pytest.param(IDEAL_DETECTOR, None, [0.5, 0.2, 3.0], [100.001, 300.37, 700.5],
                     id="mean-3"),
        pytest.param(IDEAL_DETECTOR, None, [0.5, 0.2, 400.0], [100.001, 300.37, 700.5],
                     id="mean-400"),
    ])
    def test_cells_replay(self, d, max_quanta, hr, energies, monkeypatch):
        # 400-event chunks (two and a short third), walks of few and of
        # many lines, and trees: the spectrum is the line-by-line replay;
        # incommensurate energies put the lines far apart on the sublattice
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 400)
        m = molecule(hr, energies=energies, e00=1000.0)
        cfg = SamplerConfig(events=1000, seed=21, max_quanta=max_quanta)
        spec = sample_spectrum(m, cfg, d)
        keys, counts = replay(m, cfg, d)
        assert np.array_equal(spec.energies, key_energies(keys))
        assert np.array_equal(spec.counts, counts)

    def test_emission_cells_replay(self, monkeypatch):
        # emission moves lines down the lattice: trees and walks alike
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 400)
        m = Molecule("m", 30000.0, "emission",
                     tuple(Mode(e, s) for e, s in zip([100.001, 300.37, 700.5], [0.5, 3.0, 400.0])))
        for d, k in ((IDEAL_DETECTOR, None), (DetectorModel(efficiency=0.7, dark_mean=0.1), 5)):
            cfg = SamplerConfig(events=1000, seed=3, max_quanta=k)
            spec = sample_spectrum(m, cfg, d)
            keys, counts = replay(m, cfg, d)
            assert np.array_equal(spec.energies, key_energies(keys))
            assert np.array_equal(spec.counts, counts)

    @pytest.mark.parametrize("chunk_events", [10**5, 10**4])
    def test_huge_mean_mode_law(self, chunk_events, monkeypatch):
        # S = 400 spreads over ~610 counts: one line of 1e5 events, or ten
        # chunks of 1e4, each move down the mode's tree and follow the law
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", chunk_events)
        cfg = SamplerConfig(events=10**5, seed=400)
        spec = sample_spectrum(molecule([400.0], energies=[100.0]), cfg)
        obs = np.zeros(701)
        obs[np.rint(spec.energies / 100.0).astype(int)] = spec.counts
        exp = mode_distribution(400.0, 700, "cap") * cfg.events
        big = exp >= 5.0  # merge the sparse tails into one bin
        _, p_value = scipy.stats.chisquare(np.append(obs[big], obs[~big].sum()),
                                           np.append(exp[big], exp[~big].sum()))
        assert p_value > 1e-4

    @pytest.mark.parametrize("mean, top", [(1e4, None), (1e4, 9950), (1e8, None),
                                           (1e8, 10**8 - 3000)])
    def test_huge_mean_cell_law(self, mean, top):
        # one cell of 1e6 events at 1 cm^-1 a quantum: capped and not,
        # chi-square against `mode_distribution`, or scipy's Poisson law
        # where that vector would hold 1e8 counts
        cfg = SamplerConfig(events=10**6, seed=8, max_quanta=top)
        spec = sample_spectrum(molecule([mean], energies=[1.0]), cfg)
        j = np.rint(spec.energies).astype(np.int64)
        span = np.arange(j[0] - 50, j[-1] + 51 if top is None else top + 1)
        if mean < 1e5:
            exp = mode_distribution(mean, span[-1], "truncate" if top is None else "cap")[span]
        else:
            exp = scipy.stats.poisson.pmf(span, mean)
            exp[-1] = exp[-1] if top is None else scipy.stats.poisson.sf(top - 1, mean)
        obs = np.zeros(span.size)
        obs[j - span[0]] = spec.counts
        exp *= cfg.events / exp.sum()  # all but the far tails, which hold < 1e-30
        big = exp >= 5.0  # merge the sparse tails into one bin
        _, p_value = scipy.stats.chisquare(np.append(obs[big], obs[~big].sum()),
                                           np.append(exp[big], exp[~big].sum()))
        assert p_value > 1e-4

    @pytest.mark.parametrize("s", [3.0, 30.0, 90.0])
    @pytest.mark.parametrize("cap, d", [
        pytest.param(None, IDEAL_DETECTOR, id="ideal"),
        pytest.param("mean", IDEAL_DETECTOR, id="capped"),
        pytest.param(None, DetectorModel(efficiency=0.8, dark_mean=0.05), id="loss-dark"),
    ])
    def test_walk_cell_law(self, s, cap, d):
        # one cell of 1e6 events at 1 cm^-1 a quantum walks from 0 at these
        # moderate means: chi-square against `mode_distribution`, capped
        # at the recorded mean or with the tail past 60 sd in its last bin
        mean, _ = d.recorded(s, None)
        k = math.floor(mean) if cap else math.ceil(mean + 60 * math.sqrt(mean) + 60)
        *_, (_, _, c0, tree) = sampling._law(1, 1, mean, k if cap else None, 0, 1)
        assert tree is None and c0 == 0
        cfg = SamplerConfig(events=10**6, seed=30, max_quanta=k if cap else None)
        spec = sample_spectrum(molecule([s], energies=[1.0]), cfg, d)
        obs = np.zeros(k + 1)
        obs[np.rint(spec.energies).astype(np.int64)] = spec.counts
        exp = mode_distribution(s, k, "cap", d) * cfg.events
        if not (big := exp >= 5.0).all():  # merge the sparse tails into one bin
            obs, exp = (np.append(x[big], x[~big].sum()) for x in (obs, exp))
        assert scipy.stats.chisquare(obs, exp)[1] > 1e-4

    @pytest.mark.parametrize("mean", [1e4, 1e8])
    def test_huge_mean_click_cell(self, mean):
        # a click detector records 1 whenever a photon arrives: at these
        # means every event, as `mode_distribution` gives
        d = DetectorModel(threshold_mode=True)
        assert mode_distribution(mean, 1, "cap", d).tolist() == [0.0, 1.0]
        spec = sample_spectrum(molecule([mean], energies=[1.0]), SamplerConfig(events=10**6), d)
        assert spec.energies.tolist() == [1.0] and spec.counts.tolist() == [10**6]

    def test_fine_energies_law(self):
        # energies on 0.001 cm^-1, as computed frequencies are: 1e6 events
        # land on the capped reference's exact lines and follow its law
        m = fine_acene_like(6)
        assert model.sublattice(m)[1] == TICKS_PER_CM1 // 1000
        ref = build_reference_spectrum(m, SosConfig(max_quanta=2, overflow="cap"))
        assert len(ref) == 3**6
        cfg = SamplerConfig(events=10**6, seed=6, max_quanta=2)
        spec = sample_spectrum(m, cfg)
        at = np.searchsorted(ref.energies, spec.energies)
        assert np.array_equal(ref.energies[at], spec.energies)
        obs = np.zeros(len(ref))
        obs[at] = spec.counts
        exp = ref.intensities * cfg.events
        big = exp >= 5.0  # merge the sparse tails into one bin
        _, p_value = scipy.stats.chisquare(np.append(obs[big], obs[~big].sum()),
                                           np.append(exp[big], exp[~big].sum()))
        assert p_value > 1e-4

    @pytest.mark.parametrize("chunk_events", [10**4, 10**5])
    def test_each_cell_derives_law_and_stream_once(self, chunk_events, monkeypatch):
        # S = 400 moves down a tree, the small modes walk.  Over 3 chunks
        # the call derives and plans each mode's law once, in the plan's
        # order, not once a cell, and the plan derives no hazards; every
        # cell opens its sub-stream (sets its Philox counter) exactly once,
        # each walk derives its hazards once, from its c0, and no cell
        # draws a Poisson variate
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", chunk_events)
        names = ("_recorded", "_cell_stream", "poisson_draw")
        calls = {name: [] for name in names}
        for name, log in calls.items():
            real = getattr(sampling, name)
            monkeypatch.setattr(sampling, name,
                                lambda *a, _real=real, _log=log: _log.append(a) or _real(*a))
        planning, derived, real_law, real_hazards = [], [], sampling._law, sampling.hazards

        def law(*a):
            planning.append(a)
            law = real_law(*a)
            planning.append(None)
            return law

        def hazards(*a):
            derived.append((planning[-1] is not None, a))
            return real_hazards(*a)

        monkeypatch.setattr(sampling, "_law", law)
        monkeypatch.setattr(sampling, "hazards", hazards)
        m = molecule([400.0, 0.2, 0.05], energies=[100.0, 230.0, 517.0], e00=1000.0)
        cfg = SamplerConfig(events=3 * chunk_events, seed=4)
        sample_spectrum(m, cfg)
        cells = [(i, ci) for ci, _ in sampling._chunks(cfg.events) for i in (1, 2, 3)]
        assert len(cells) == 9
        assert sorted(a[2:] for a in calls["_cell_stream"]) == sorted(cells)
        assert [a[1] for a in calls["_recorded"]] == [1, 2, 3]
        assert [a[2] for a in planning if a] == [0.05, 0.2, 400.0]
        assert calls["poisson_draw"] == []
        assert not any(plan for plan, _ in derived)
        starts = {law[0]: law[2] for law in (real_law(*a)[3] for a in planning if a)}
        assert starts[0.05] == starts[0.2] == 0 < starts[400.0]
        assert all(a == (a[0], None, starts[a[0]]) for _, a in derived)
        walks = [a[0] for _, a in derived]
        assert walks.count(0.05) == walks.count(0.2) == 3 and walks.count(400.0) <= 3
        for log in calls.values():
            log.clear()
        sample_mode(400.0, 1, cfg)
        assert len(calls["_recorded"]) == len(calls["poisson_draw"]) == 1
        assert [a[2:] for a in calls["_cell_stream"]] == [(1, 0)]

    def test_walks_start_where_hazards_need_no_head(self, monkeypatch):
        # `model.hazards` sums no head P(J < start): every walk the sampler
        # draws, planned or continued, after a tree or alone, starts at 0,
        # at the top or above the mean
        starts, real = set(), sampling.hazards

        def hazards(*a):
            for h in real(*a):
                starts.add(a)
                yield h

        monkeypatch.setattr(sampling, "hazards", hazards)
        for hr, k in (([0.3, 1.1, 3.0, 40.0, 400.0], None), ([2.5, 90.0, 1e4], 50),
                      ([3.0, 400.0], 300), ([3.0, 150.0], 3)):
            sample_spectrum(molecule(hr), SamplerConfig(events=10**4, seed=2, max_quanta=k))
        assert len(starts) > 6
        assert all(start in (0, top) or start > mean for mean, top, start in starts), starts

    def test_sample_spectrum_draws_no_poisson_variate(self, monkeypatch):
        # every cell splits its lines, a huge mean too
        class NoPoisson(np.random.Generator):
            def poisson(self, *a, **k):
                raise AssertionError("a Poisson variate was drawn")

        monkeypatch.setattr(np.random, "Generator", NoPoisson)
        with pytest.raises(AssertionError, match="Poisson"):  # the guard holds
            sample_mode(1e4, 1, SamplerConfig(events=10))
        for hr, k in (([0.3, 3.0, 400.0], None), ([1e4, 1e8], None), ([2.5, 1e4], 9990)):
            m = molecule(hr, energies=[1.0, 1.5, 2.0][:len(hr)])
            spec = sample_spectrum(m, SamplerConfig(events=10**5, seed=1, max_quanta=k))
            assert int(spec.counts.sum()) == 10**5

    def test_huge_mean_cell_memory_bounded(self, monkeypatch):
        # ~400 live lines meet S = 1e8 at 1 cm^-1 in a 1e4-event chunk: the
        # counts spread over ~7.5e4 values, so a (j, line) table of them
        # would take ~0.3 GB; the cell's tree holds 2**18 - 1 P(left), for
        # ~1.7e5 counts, and its levels at most the events (peak 5.2 MiB)
        monkeypatch.setattr(sampling, "_CHUNK_EVENTS", 10**4)
        energies = [101.013, 203.37, 307.5, 1.0]
        m = molecule([2.0, 2.0, 2.0, 1e8], energies=energies)
        cfg = SamplerConfig(events=10**4, seed=5)
        assert len(sample_spectrum(molecule([2.0] * 3, energies=energies[:3]), cfg)) > 350
        spec, peak, _ = traced(lambda: sample_spectrum(m, cfg))
        assert int(spec.counts.sum()) == 10**4
        assert peak < 16 * 2**20, peak

    def test_huge_means_memory_bounded(self):
        # the 3-mode huge-mean call at 1e6 events peaks at 18.3 MiB (numpy
        # 2.4.6): its trees' levels hold at most a few arrays of the items
        # they draw.  Version 0.3.0 drew the mean-1e4 cell per event and
        # peaked at 27.7 MiB
        spec, peak, _ = traced(lambda: sample_spectrum(huge_means(), SamplerConfig(events=10**6)))
        assert int(spec.counts.sum()) == 10**6
        assert peak < 22 * 2**20, peak

    def test_split_cell_refuses_past_lattice(self):
        # S = 400 moves one line of 1e5 events down its tree; counts past
        # ~300 at 3e7 cm^-1 a quantum leave the +/-9e9 cm^-1 lattice
        with pytest.raises(ValueError, match="lattice"):
            sample_spectrum(molecule([400.0], energies=[3e7]),
                            SamplerConfig(events=10**5, seed=1))

    def test_walk_refuses_past_lattice(self):
        # S = 40 at 3e8 cm^-1 a quantum walks from 0, so its plan checks no
        # reach; counts past 30 leave the +/-9e9 cm^-1 lattice, and the walk
        # refuses the step that would form such a key
        m = molecule([40.0], energies=[3e8])
        origin, step, (t,) = model.sublattice(m)
        *_, (_, _, c0, tree) = sampling._law(1, t, 40.0, None, origin, step)
        assert tree is None and c0 == 0
        with pytest.raises(ValueError, match="beyond the energy lattice"):
            sample_spectrum(m, SamplerConfig(events=10**5, seed=1))

    def test_cap_far_above_the_mean_draws_as_no_cap(self):
        # a cap 40 sd above the mean, far past 2**53, binds on no count
        # the plan or the walk reaches, so it draws as no cap
        m = molecule([3.0, 400.0])
        capped, free = (SamplerConfig(events=10**5, seed=8, max_quanta=k) for k in (10**17, None))
        a, b = sample_spectrum(m, capped), sample_spectrum(m, free)
        assert np.array_equal(a.energies, b.energies) and np.array_equal(a.counts, b.counts)

    def test_huge_mean_under_a_low_cap(self):
        # S = 1e8 capped at 2 records 2 on every event: its counts stay on
        # the lattice at 100 cm^-1 a quantum, and its one count needs no tree
        spec = sample_spectrum(molecule([1e8], energies=[100.0]),
                               SamplerConfig(events=1000, max_quanta=2))
        assert spec.energies.tolist() == [200.0] and spec.counts.tolist() == [1000]

    def test_spread_past_the_plan_refused(self):
        # S = 1e12 at 1e-4 cm^-1 a quantum stays on the lattice but spreads
        # over ~1.2e7 counts: refused before any allocation
        with pytest.raises(ValueError, match=r"^mode 1: recorded mean 1e\+12 spreads over"):
            sample_spectrum(molecule([1e12], energies=[1e-4]), SamplerConfig(events=10))

    def test_max_quanta_caps_lattice(self):
        m = molecule([2.5], energies=[500.0])
        cfg = SamplerConfig(events=50000, seed=19, max_quanta=1)
        spec = sample_spectrum(m, cfg)
        assert set(spec.energies.tolist()) <= {0.0, 500.0}

    @pytest.mark.parametrize("cap", [2**63 - 1, 2**63, np.uint64(2**64 - 1), 10**30])
    @pytest.mark.parametrize("events", [50, 10**5])  # walks of few lines, of many
    def test_cap_past_int64_is_no_cap(self, cap, events):
        # numpy draws int64 counts, so such a cap never binds: it draws as no cap
        m = molecule([0.5, 3.0])
        capped, free = (SamplerConfig(events=events, seed=8, max_quanta=k) for k in (cap, None))
        assert np.array_equal(sample_mode(0.5, 1, capped), sample_mode(0.5, 1, free))
        for d in (IDEAL_DETECTOR, DetectorModel(threshold_mode=True)):
            a, b = sample_spectrum(m, capped, d), sample_spectrum(m, free, d)
            assert np.array_equal(a.energies, b.energies) and np.array_equal(a.counts, b.counts)


# sha256 of a call's energies.tobytes() + counts.tobytes(), by version: the
# version pins the draws, so sampled bytes may change only with it, and a
# version without an entry fails.  CHANGES.md keeps earlier versions' hashes
SAMPLED_BYTES = {
    # `sample_mode` draws one stream a mode; `sample_spectrum` draws as 0.6.0 did
    "0.7.0": {
        "p8-K1-1e3": "78353ba1bbb115b9ce688ea1195d2c8fbd6f78f2636aa601cd430850cb0e2d98",
        "p8-K1-1e7": "e5e5b0f2fe4a3cdea812c7ecc5131a0a70b7f10f559f7bf17e3a4dc1a49b65ee",
        "a66-1e6": "9e02c92cccbe1d0000f9b84f11dd5d43c9342ee91283868e0763d8355e055142",
        "p8-click-loss-dark": "8282bc5dafe2da92f6a1861e89e88ca98c6fe41181b8cdafd90b9febee826388",
        "f6-K2": "2f55f3fe4fbbee340522816a0a7a8f2da41a029a769ea6c37b91df962f4353f4",
        "f66-1e6": "c7a95d31d6768f20cb8575d762792c15a838e1f174c1c4ec12586c0e9ff7a5f9",
        "huge3-1e6": "c6a9e27fffd0d076e039a4c4ddfc02a1dab22f166fe4f141b5532fe50891345f",
        "a12-S6-1e6": "3200271f7714731b393b2fd17ac5cf3d1e0f4459792471527e0c53d1b0bcd787",
        "tree-K160-1e6": "166592bfee7bbd65c1338fb2fda907c90d71869ead3f81d421c80cb20e358664",
    },
}
SAMPLED_CALLS = {
    "p8-K1-1e3": lambda: (pentacene_like_8(), SamplerConfig(events=10**3, seed=1, max_quanta=1),
                          IDEAL_DETECTOR),
    "p8-K1-1e7": lambda: (pentacene_like_8(), SamplerConfig(events=10**7, seed=1, max_quanta=1),
                          IDEAL_DETECTOR),
    "a66-1e6": lambda: (large_acene_like(66), SamplerConfig(events=10**6, seed=1), IDEAL_DETECTOR),
    "p8-click-loss-dark": lambda: (pentacene_like_8(), SamplerConfig(events=10**5, seed=2),
                                   DetectorModel(efficiency=0.8, dark_mean=0.01,
                                                 threshold_mode=True)),
    "f6-K2": lambda: (fine_acene_like(6), SamplerConfig(events=10**6, seed=6, max_quanta=2),
                      IDEAL_DETECTOR),
    "f66-1e6": lambda: (fine_acene_like(66), SamplerConfig(events=10**6, seed=1), IDEAL_DETECTOR),
    "huge3-1e6": lambda: (huge_means(), SamplerConfig(events=10**6, seed=1), IDEAL_DETECTOR),
    "a12-S6-1e6": lambda: (scaled(anthracene_like_12(), 6.0), SamplerConfig(events=10**6, seed=1),
                           IDEAL_DETECTOR),
    # a walk, then S = 150 down a tree that ends at its cap of 160
    "tree-K160-1e6": lambda: (molecule([0.4, 150.0], energies=[310.0, 117.0]),
                              SamplerConfig(events=10**6, seed=1, max_quanta=160), IDEAL_DETECTOR),
}


# sha256 of `sample_mode(2.5, 3, SamplerConfig(events=n, seed=1,
# max_quanta=3)).tobytes()`, by version, kept as `SAMPLED_BYTES` is.
# 0.7.0 draws every event from the mode's chunk-0 stream, where 0.6.0
# drew each 10^6 events from a stream of their own, so the first 10^6
# counts keep 0.6.0's bytes
MODE_BYTES = {
    "0.7.0": {
        10**6: "44983d6ffc7fd46bff4c0cd1ca646ffa2869e9db6fe170ba4f6789663480e23e",
        2_500_000: "efd304c49c7e6a5d02b02fabc5cfdf69d8696d7691379fd069d6e36ba0df28a7",
    },
}


@pytest.mark.parametrize("events", [10**6, 2_500_000])
def test_sample_mode_bytes_pinned_by_version(events):
    assert __version__ in MODE_BYTES, f"no sample_mode bytes recorded for version {__version__}"
    pins = MODE_BYTES[__version__]
    counts = sample_mode(2.5, 3, SamplerConfig(events=events, seed=1, max_quanta=3))
    assert hashlib.sha256(counts.tobytes()).hexdigest() == pins[events]


@pytest.mark.parametrize("case", sorted(SAMPLED_CALLS))
def test_sampled_bytes_pinned_by_version(case):
    assert __version__ in SAMPLED_BYTES, f"no sampled bytes recorded for version {__version__}"
    pins = SAMPLED_BYTES[__version__]
    spec = sample_spectrum(*SAMPLED_CALLS[case]())
    assert hashlib.sha256(spec.energies.tobytes() + spec.counts.tobytes()).hexdigest() == pins[case]


class TestExactReferenceMemory:
    """Each stage of the exact-reference path holds about one array of
    transient memory, 8 B a stick, on the 66-mode K=3 capped reference
    (178,628 sticks): no whole text, whole-column list or sort of keys
    that already ascend."""

    @pytest.fixture(scope="class")
    def reference(self):
        m = large_acene_like(66)
        cfg = SosConfig(max_quanta=3, overflow="cap")
        ref = build_reference_spectrum(m, cfg)
        assert len(ref) == 178_628
        return m, cfg, ref

    def test_build_reference_spectrum(self, reference):
        m, cfg, ref = reference
        spec, peak, retained = traced(lambda: build_reference_spectrum(m, cfg))
        assert spec.energies.tobytes() == ref.energies.tobytes()
        assert retained <= 16.1 * len(ref)  # the result's two arrays
        assert peak - retained <= 24 * len(ref), (peak - retained) / len(ref)

    def test_write_spectrum(self, reference, tmp_path):
        ref = reference[2]
        path = tmp_path / "ref.csv"
        _, peak, _ = traced(lambda: write_spectrum(ref, path))
        assert read_spectrum(path).energies.tobytes() == ref.energies.tobytes()
        assert peak <= 32 * len(ref), peak / len(ref)

    def test_fidelity(self, reference):
        m, _, ref = reference
        sample = sample_spectrum(m, SamplerConfig(events=10**5, seed=1))
        f, peak, _ = traced(lambda: fidelity(sample, ref))
        assert 0.9 < f <= 1.0
        assert peak <= 24 * len(ref), peak / len(ref)
