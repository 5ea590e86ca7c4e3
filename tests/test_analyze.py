"""Gate-distribution analytics: the binary log format, the on/off/dependent
taxonomy, histograms, principal-component reduction, and the CSV exports.

Scan results are checked against brute-force loops, and the PCA against an
independent eigendecomposition of the covariance matrix and against the
thin-SVD oracle."""

import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaternet.analyze as analyze_mod
from gaternet.analyze import (
    ALWAYS_OFF,
    ALWAYS_ON,
    CATEGORIES,
    INPUT_DEPENDENT,
    GateLog,
    classify_gates,
    export_usage_vectors,
    fired_count_per_sample,
    load_gate_log,
    on_count_histogram,
    pca_reduce,
    save_gate_log,
    write_histogram_csv,
    write_layer_distribution_csv,
    write_taxonomy_csv,
)
from gaternet.persist import CheckpointError, load_checkpoint, save_checkpoint
from oracles import csv_writer_reference, pca_svd_reference


def random_log(seed: int, n: int = 12, c: int = 13, p: float = 0.5) -> GateLog:
    rng = np.random.default_rng(seed)
    return GateLog(
        gates=(rng.random((n, c)) < p).astype(np.uint8),
        labels=rng.integers(0, 5, n).astype(np.int64),
        layer_ids=np.repeat(np.arange(-(-c // 4)), 4)[:c].astype(np.int64),
        filter_ids=np.tile(np.arange(4), -(-c // 4))[:c].astype(np.int64),
    )


def crafted_log() -> GateLog:
    # col 0 always on, col 1 always off, cols 2 and 4 mixed, col 3 always on
    gates = np.array([
        [1, 0, 0, 1, 1],
        [1, 0, 1, 1, 0],
        [1, 0, 0, 1, 1],
        [1, 0, 1, 1, 0],
    ], dtype=np.uint8)
    return GateLog(
        gates=gates,
        labels=np.array([0, 1, 0, 1], dtype=np.int64),
        layer_ids=np.array([0, 0, 1, 1, 1], dtype=np.int64),
        filter_ids=np.array([0, 1, 0, 1, 2], dtype=np.int64),
    )


class TestGateLog:
    def test_validation(self):
        ok = crafted_log()
        with pytest.raises(ValueError):  # non-binary
            GateLog(ok.gates * 2, ok.labels, ok.layer_ids, ok.filter_ids)
        for bad in (0.5, 256.0, -1):  # a uint8 cast would store these as 0
            gates = ok.gates.astype(np.float64)
            gates[0, 0] = bad
            with pytest.raises(ValueError):
                GateLog(gates, ok.labels, ok.layer_ids, ok.filter_ids)
        with pytest.raises(ValueError):  # label count mismatch
            GateLog(ok.gates, ok.labels[:3], ok.layer_ids, ok.filter_ids)
        with pytest.raises(ValueError):  # gate-id width mismatch
            GateLog(ok.gates, ok.labels, ok.layer_ids[:4], ok.filter_ids)
        with pytest.raises(ValueError):  # 1-D gates
            GateLog(ok.gates[0], ok.labels[:1], ok.layer_ids, ok.filter_ids)
        with pytest.raises(ValueError):  # duplicate (layer, filter) pair
            GateLog(ok.gates, ok.labels,
                    np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 1]))

    def test_round_trip_is_lossless(self, tmp_path):
        # width 13 exercises the padded final byte of each packed row
        log = random_log(0, n=9, c=13)
        path = tmp_path / "gates.glog"
        save_gate_log(path, log)
        back = load_gate_log(path)
        assert np.array_equal(back.gates, log.gates)
        assert back.gates.dtype == np.uint8
        assert np.array_equal(back.labels, log.labels)
        assert np.array_equal(back.layer_ids, log.layer_ids)
        assert np.array_equal(back.filter_ids, log.filter_ids)

    @pytest.mark.parametrize("c", [1, 7, 8, 9, 16, 33])
    def test_round_trip_widths(self, tmp_path, c):
        log = random_log(c, n=5, c=c)
        save_gate_log(tmp_path / "w.glog", log)
        assert np.array_equal(load_gate_log(tmp_path / "w.glog").gates, log.gates)

    def test_corrupt_files_are_rejected(self, tmp_path):
        log = crafted_log()
        path = tmp_path / "gates.glog"
        save_gate_log(path, log)
        raw = path.read_bytes()

        bad_magic = tmp_path / "magic.glog"
        bad_magic.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_gate_log(bad_magic)

        bad_version = tmp_path / "version.glog"
        bad_version.write_bytes(raw[:4] + b"\x63\x00\x00\x00" + raw[8:])
        with pytest.raises(CheckpointError, match="version"):
            load_gate_log(bad_version)

        truncated = tmp_path / "short.glog"
        truncated.write_bytes(raw[:-1])
        with pytest.raises(CheckpointError):
            load_gate_log(truncated)

        padded = tmp_path / "long.glog"
        padded.write_bytes(raw + b"\x00")
        with pytest.raises(CheckpointError):
            load_gate_log(padded)

        header_only = tmp_path / "header.glog"
        header_only.write_bytes(raw[:12])
        with pytest.raises(CheckpointError, match="truncated"):
            load_gate_log(header_only)

    @pytest.mark.parametrize("edit, match", [
        (lambda t, m: m.update(kind="checkpoint"), "not a gate log"),
        (lambda t, m: t.pop("filter_ids"), "filter_ids"),
        (lambda t, m: t.update(labels=t["labels"].astype(np.float64)), "labels"),
        (lambda t, m: t.update(gates=np.pad(t["gates"], ((0, 0), (0, 1)))),
         "wide"),
        (lambda t, m: t.update(gates=t["gates"][:, :0]), "wide"),
    ], ids=["other-kind", "missing-tensor", "float64-labels", "packed-too-wide",
            "packed-too-narrow"])
    def test_malformed_container_is_rejected(self, tmp_path, edit, match):
        path = tmp_path / "gates.glog"
        save_gate_log(path, crafted_log())
        tensors, meta = load_checkpoint(path)
        edit(tensors, meta)
        save_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match=match):
            load_gate_log(path)

    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(0, 10**6),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                          max_size=4))
    def test_corrupt_bytes_raise_only_checkpoint_error(self, tmp_path_factory,
                                                       cut, edits):
        path = tmp_path_factory.mktemp("fuzz") / "g.glog"
        save_gate_log(path, crafted_log())
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos % len(raw)] = value
        path.write_bytes(bytes(raw[: cut % (len(raw) + 1)]))
        try:
            load_gate_log(path)
        except CheckpointError:
            pass


class TestTaxonomy:
    def test_crafted_categories(self):
        tax = classify_gates(crafted_log())
        assert tax.on_counts.tolist() == [4, 0, 2, 4, 2]
        assert list(tax.categories) == [
            ALWAYS_ON, ALWAYS_OFF, INPUT_DEPENDENT, ALWAYS_ON, INPUT_DEPENDENT,
        ]
        assert list(tax.layers) == [0, 1]
        assert tax.counts.tolist() == [[1, 1, 0], [1, 0, 2]]
        assert tax.fractions[0].tolist() == [0.5, 0.5, 0.0]
        assert tax.fractions[1] == pytest.approx([1 / 3, 0.0, 2 / 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        log = random_log(seed, n=7, c=21, p=0.3 + 0.1 * seed)
        tax = classify_gates(log)
        for j in range(log.num_gates):
            col = log.gates[:, j]
            assert tax.on_counts[j] == sum(int(v) for v in col), j
            if all(v == 1 for v in col):
                expect = ALWAYS_ON
            elif all(v == 0 for v in col):
                expect = ALWAYS_OFF
            else:
                expect = INPUT_DEPENDENT
            assert tax.categories[j] == expect, j
        # partition identity: the three categories tile the gate set
        assert (tax.total(ALWAYS_ON) + tax.total(ALWAYS_OFF)
                + tax.total(INPUT_DEPENDENT)) == log.num_gates
        assert int(tax.counts.sum()) == log.num_gates
        assert np.allclose(tax.fractions.sum(axis=1), 1.0)

    @given(st.integers(0, 200))
    def test_column_permutation_equivariance(self, seed):
        log = random_log(seed % 7, n=6, c=12)
        perm = np.random.default_rng(seed).permutation(log.num_gates)
        shuffled = GateLog(
            gates=log.gates[:, perm],
            labels=log.labels,
            layer_ids=log.layer_ids[perm],
            filter_ids=log.filter_ids[perm],
        )
        base = classify_gates(log)
        moved = classify_gates(shuffled)
        assert np.array_equal(moved.categories, base.categories[perm])
        # per-layer counts ignore column order entirely
        assert np.array_equal(moved.layers, base.layers)
        assert np.array_equal(moved.counts, base.counts)


class TestHistograms:
    def test_on_count_report(self):
        # input-dependent gates 2 and 4 each fire twice; the always-on
        # gates' count of 4 stays out of the histogram
        log = crafted_log()
        hist = on_count_histogram(log, classify_gates(log), bins=4)
        assert hist.counts.tolist() == [0, 0, 2, 0]
        assert hist.edges.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_on_count_total_matches_dependent_gates(self):
        log = random_log(3, n=20, c=40)
        tax = classify_gates(log)
        hist = on_count_histogram(log, tax, bins=10)
        assert int(hist.counts.sum()) == tax.total(INPUT_DEPENDENT)
        # every input-dependent on-count is strictly inside (0, n)
        dep = tax.on_counts[tax.categories == INPUT_DEPENDENT]
        assert np.all(dep > 0)
        assert np.all(dep < log.num_samples)

    def test_fired_count_report(self):
        report = fired_count_per_sample(crafted_log(), bins=5)
        assert report.min == 3 and report.max == 3
        assert report.mean == 3.0
        assert report.histogram.counts.tolist() == [0, 0, 0, 4, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_fired_count_brute_force(self, seed):
        log = random_log(seed + 10, n=15, c=22)
        report = fired_count_per_sample(log, bins=7)
        expect = [sum(int(v) for v in row) for row in log.gates]
        assert (report.min, report.max) == (min(expect), max(expect))
        # the exact integer total over n, not a float mean
        assert report.mean == sum(expect) / log.num_samples
        assert int(report.histogram.counts.sum()) == log.num_samples

    def test_fired_count_refuses_no_samples(self):
        log = crafted_log()
        empty = GateLog(log.gates[:0], log.labels[:0], log.layer_ids,
                        log.filter_ids)
        with pytest.raises(ValueError, match="empty log"):
            fired_count_per_sample(empty)

    def test_fired_count_refuses_no_gates(self):
        log = crafted_log()
        empty = GateLog(log.gates[:, :0], log.labels, log.layer_ids[:0],
                        log.filter_ids[:0])
        with pytest.raises(ValueError, match="empty log"):
            fired_count_per_sample(empty)

    def test_bins_validation(self):
        log = crafted_log()
        with pytest.raises(ValueError):
            on_count_histogram(log, classify_gates(log), bins=0)
        with pytest.raises(ValueError):
            fired_count_per_sample(log, bins=0)


def spectral_data(seed: int, n: int = 40, d: int = 7) -> np.ndarray:
    """Random data with well-separated singular values, so principal
    directions are unambiguous up to sign."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = 10.0 * 0.5 ** np.arange(d)
    x = u @ np.diag(s) @ v.T
    return x + rng.standard_normal(d)  # arbitrary mean offset


class TestPCA:
    def test_matches_covariance_eigendecomposition(self):
        x = spectral_data(0)
        k = 4
        result = pca_reduce(x, k)
        xc = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(xc.T @ xc)
        evals, evecs = evals[::-1], evecs[:, ::-1]  # descending
        for i in range(k):
            align = abs(float(result.components[i] @ evecs[:, i]))
            assert align > np.cos(np.pi / 180), f"component {i}: {align}"
        expect_ratio = evals[:k] / evals.sum()
        assert np.allclose(result.explained_variance_ratio, expect_ratio,
                           atol=1e-12)

    def test_two_dim_closed_form_angle(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((60, 2)) @ np.diag([3.0, 0.4])
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        x = base @ rot.T + [1.0, -2.0]
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc
        angle = 0.5 * np.arctan2(2 * cov[0, 1], cov[0, 0] - cov[1, 1])
        expect = np.array([np.cos(angle), np.sin(angle)])
        got = pca_reduce(x, 1).components[0]
        assert abs(float(got @ expect)) > np.cos(np.pi / 180)

    def test_reconstruction_at_full_rank(self):
        x = spectral_data(2, n=20, d=5)
        result = pca_reduce(x, 5)
        rebuilt = result.reduced @ result.components + result.mean
        assert np.allclose(rebuilt, x, atol=1e-8)

    def test_ratio_properties_and_sign_convention(self):
        x = spectral_data(3)
        result = pca_reduce(x, 6)
        r = result.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-15)  # non-increasing
        assert float(r.sum()) <= 1.0 + 1e-9
        assert np.all(r >= 0)
        for row in result.components:
            assert row[int(np.abs(row).argmax())] > 0
        # rows orthonormal
        assert np.allclose(result.components @ result.components.T,
                           np.eye(6), atol=1e-10)
        assert not len(result.components) > result.rank

    def test_deterministic(self):
        x = spectral_data(4)
        a = pca_reduce(x, 3)
        b = pca_reduce(x, 3)
        assert np.array_equal(a.reduced, b.reduced)
        assert np.array_equal(a.components, b.components)

    def test_rank_deficiency_shows_in_rank(self):
        # no warning: the suite turns warnings into errors
        x = np.outer(np.arange(6, dtype=np.float64), [1.0, 2.0, 3.0, 4.0])
        result = pca_reduce(x, 3)
        assert result.rank == 1
        assert len(result.components) > result.rank
        assert result.explained_variance_ratio[0] == pytest.approx(1.0)
        assert result.explained_variance_ratio[1:] == pytest.approx([0.0, 0.0])

    def test_constant_data(self):
        x = np.full((5, 3), 2.5)
        result = pca_reduce(x, 2)
        assert result.rank == 0
        assert np.all(result.explained_variance_ratio == 0.0)
        assert np.all(result.reduced == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_svd_oracle_on_planted_logs(self, data):
        """0/1 logs whose extra columns are constant, duplicates or
        complements of random ones, so the centered data is often rank
        deficient. Components are compared where the eigengap around them
        exceeds 1e-3 of the largest eigenvalue; elsewhere either basis of
        the eigenspace is right."""
        n = data.draw(st.integers(2, 600), label="n")
        base = data.draw(st.integers(1, 40), label="base columns")
        planted = data.draw(st.lists(
            st.sampled_from(["off", "on", "duplicate", "complement"]),
            max_size=40), label="planted columns")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        cols = list((rng.random((n, base)) < rng.uniform(0.02, 0.98, base)).T)
        for kind in planted:
            src = cols[rng.integers(base)]
            cols.append({"off": np.zeros(n, bool), "on": np.ones(n, bool),
                         "duplicate": src, "complement": ~src}[kind])
        x = np.stack(cols, axis=1)[:, rng.permutation(len(cols))].astype(np.uint8)
        k = data.draw(st.integers(1, min(x.shape)), label="k")

        got = pca_reduce(x, k)
        want = pca_svd_reference(x, k)
        assert got.rank == want.rank
        assert ((len(got.components) > got.rank)
                == (len(want.components) > want.rank))
        assert np.abs(got.explained_variance_ratio
                      - want.explained_variance_ratio).max() < 1e-12
        s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
        evals = np.concatenate([[np.inf], s * s, [0.0]])
        for i in range(min(k, want.rank)):
            gap = min(evals[i] - evals[i + 1], evals[i + 1] - evals[i + 2])
            if gap > 1e-3 * evals[1]:
                cos = float(got.components[i] @ want.components[i])
                assert 1 - abs(cos) < 1e-9, f"component {i}: cos {cos}"

    def test_k_validation(self):
        x = spectral_data(5, n=10, d=4)
        with pytest.raises(ValueError):
            pca_reduce(x, 0)
        with pytest.raises(ValueError):
            pca_reduce(x, 5)
        with pytest.raises(ValueError):
            pca_reduce(x[0], 1)


class TestCsvExports:
    """Each writer's exact bytes: a header naming the columns once, then one
    "\n"-terminated line per row, floats as .8e."""

    def test_taxonomy_csv(self, tmp_path):
        log = crafted_log()
        path = tmp_path / "taxonomy.csv"
        write_taxonomy_csv(path, log, classify_gates(log))
        assert path.read_bytes() == (
            b"gate_index,layer_id,filter_id,category\n"
            b"0,0,0,always_on\n"
            b"1,0,1,always_off\n"
            b"2,1,0,input_dependent\n"
            b"3,1,1,always_on\n"
            b"4,1,2,input_dependent\n"
        )

    def test_layer_distribution_csv(self, tmp_path):
        path = tmp_path / "layers.csv"
        write_layer_distribution_csv(path, classify_gates(crafted_log()))
        assert path.read_bytes() == (
            b"layer_id,total,always_on,always_off,input_dependent,"
            b"frac_always_on,frac_always_off,frac_input_dependent\n"
            b"0,2,1,1,0,5.00000000e-01,5.00000000e-01,0.00000000e+00\n"
            b"1,3,1,0,2,3.33333333e-01,0.00000000e+00,6.66666667e-01\n"
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0] == {
            "layer_id": "0", "total": "2", "always_on": "1", "always_off": "1",
            "input_dependent": "0", "frac_always_on": "5.00000000e-01",
            "frac_always_off": "5.00000000e-01",
            "frac_input_dependent": "0.00000000e+00",
        }
        assert rows[1]["total"] == "3"
        assert float(rows[1]["frac_input_dependent"]) == pytest.approx(2 / 3)

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        log = crafted_log()
        write_histogram_csv(
            path, on_count_histogram(log, classify_gates(log), bins=4))
        assert path.read_bytes() == (
            b"bin_lo,bin_hi,count\n"
            b"0.00000000e+00,1.00000000e+00,0\n"
            b"1.00000000e+00,2.00000000e+00,0\n"
            b"2.00000000e+00,3.00000000e+00,2\n"
            b"3.00000000e+00,4.00000000e+00,0\n"
        )

    def test_fired_count_histogram_csv(self, tmp_path):
        path = tmp_path / "fired.csv"
        write_histogram_csv(path,
                            fired_count_per_sample(crafted_log(), bins=5).histogram)
        assert path.read_bytes() == (
            b"bin_lo,bin_hi,count\n"
            b"0.00000000e+00,1.00000000e+00,0\n"
            b"1.00000000e+00,2.00000000e+00,0\n"
            b"2.00000000e+00,3.00000000e+00,0\n"
            b"3.00000000e+00,4.00000000e+00,4\n"
            b"4.00000000e+00,5.00000000e+00,0\n"
        )

    def test_usage_vectors_csv(self, tmp_path):
        # centered columns 0 and 1 are equal and orthogonal to column 2, so
        # the components are (1, 1, 0) / sqrt(2) and (0, 0, 1), and every
        # projection is +-sqrt(0.5) or +-0.5: no digit of .8e is in doubt
        log = GateLog(
            gates=np.array([[1, 1, 1], [1, 1, 0], [0, 0, 1], [0, 0, 0]],
                           dtype=np.uint8),
            labels=np.array([0, 1, 2, 1]),
            layer_ids=np.array([0, 0, 1]),
            filter_ids=np.array([0, 1, 0]),
        )
        path = tmp_path / "usage.csv"
        export_usage_vectors(log, 2, path)
        assert path.read_bytes() == (
            b"label,pc0,pc1\n"
            b"0,7.07106781e-01,5.00000000e-01\n"
            b"1,7.07106781e-01,-5.00000000e-01\n"
            b"2,-7.07106781e-01,5.00000000e-01\n"
            b"1,-7.07106781e-01,-5.00000000e-01\n"
        )

    def test_usage_vectors_round_trip(self, tmp_path):
        log = random_log(8, n=25, c=17)
        path = tmp_path / "usage.csv"
        result = export_usage_vectors(log, 3, path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["label", "pc0", "pc1", "pc2"]
            rows = list(reader)
        assert [int(r["label"]) for r in rows] == log.labels.tolist()
        got = np.array([[float(r[f"pc{j}"]) for j in range(3)] for r in rows])
        assert np.allclose(got, result.reduced, rtol=1e-7, atol=1e-12)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_writers_match_csv_writer_oracle(self, tmp_path_factory, data):
        """Each writer's bytes equal those of the former csv.writer form:
        values from .tolist(), floats preformatted as f"{v:.8e}". Logs
        repeat a few distinct rows and often hold constant columns, so k
        can exceed the rank and many reduced values are 0.0; negating the
        reduction turns those into -0.0."""
        n = data.draw(st.integers(1, 40), label="n")
        c = data.draw(st.integers(1, 24), label="c")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        distinct = rng.random((data.draw(st.integers(1, 6), label="distinct"),
                               c)) < rng.uniform(0, 1, c)
        log = GateLog(
            gates=distinct[rng.integers(len(distinct), size=n)].astype(np.uint8),
            labels=rng.integers(-3, 1000, n),
            layer_ids=np.sort(rng.integers(0, 5, c)),
            filter_ids=np.arange(c),
        )
        k = data.draw(st.integers(1, min(n, c)), label="pca_k")
        bins = data.draw(st.integers(1, 12), label="bins")
        negate = data.draw(st.booleans(), label="negate")
        out = tmp_path_factory.mktemp("csv")

        tax = classify_gates(log)
        on_hist = on_count_histogram(log, tax, bins)
        fired_hist = fired_count_per_sample(log, bins).histogram
        write_taxonomy_csv(out / "taxonomy.csv", log, tax)
        write_layer_distribution_csv(out / "layers.csv", tax)
        write_histogram_csv(out / "on.csv", on_hist)
        write_histogram_csv(out / "fired.csv", fired_hist)
        pca = analyze_mod.pca_reduce

        def maybe_negated(*args):
            result = pca(*args)
            return (dataclasses.replace(result, reduced=-result.reduced)
                    if negate else result)

        with mock.patch.object(analyze_mod, "pca_reduce", maybe_negated):
            result = export_usage_vectors(log, k, out / "usage.csv")

        def e8(values):
            return [f"{v:.8e}" for v in values]

        hist_header = ["bin_lo", "bin_hi", "count"]
        on_edges = e8(on_hist.edges.tolist())
        fired_edges = e8(fired_hist.edges.tolist())
        want = {
            "taxonomy.csv": csv_writer_reference(
                ["gate_index", "layer_id", "filter_id", "category"],
                zip(range(c), log.layer_ids.tolist(), log.filter_ids.tolist(),
                    (CATEGORIES[cat] for cat in tax.categories.tolist()))),
            "layers.csv": csv_writer_reference(
                ["layer_id", "total", *CATEGORIES,
                 *(f"frac_{name}" for name in CATEGORIES)],
                [[layer, sum(counts), *counts, *e8(fracs)]
                 for layer, counts, fracs in zip(tax.layers.tolist(),
                                                 tax.counts.tolist(),
                                                 tax.fractions.tolist())]),
            "on.csv": csv_writer_reference(hist_header, zip(
                on_edges[:-1], on_edges[1:], on_hist.counts.tolist())),
            "fired.csv": csv_writer_reference(hist_header, zip(
                fired_edges[:-1], fired_edges[1:], fired_hist.counts.tolist())),
            "usage.csv": csv_writer_reference(
                ["label", *(f"pc{i}" for i in range(k))],
                [[label, *e8(vec)] for label, vec in
                 zip(log.labels.tolist(), result.reduced.tolist())]),
        }
        for name, blob in want.items():
            assert (out / name).read_bytes() == blob, name


class TestCollect:
    def test_batched_collection_matches_single_forward(self):
        from gaternet.model import GaterNet, LayerSpec, ModelSpec
        from gaternet.tensor import Tensor
        from gaternet.train import evaluate
        spec = ModelSpec(
            input_shape=(3, 8, 8), num_classes=3,
            backbone=(LayerSpec("conv", filters=4, gated=True),
                      LayerSpec("pool"), LayerSpec("fc", width=3)),
            gater=(LayerSpec("conv", filters=2), LayerSpec("pool")),
            bottleneck=2,
        )
        model = GaterNet(spec, seed=0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 10).astype(np.int64)
        _, _, gates = evaluate(model, "joint", x, labels, batch_size=3)
        _, bundle = model.forward(Tensor(x), training=False)
        assert gates.dtype == np.uint8
        assert np.array_equal(gates, bundle.g_beta.data.astype(np.uint8))


def test_category_codes_are_stable():
    assert CATEGORIES == ("always_on", "always_off", "input_dependent")
    assert (ALWAYS_ON, ALWAYS_OFF, INPUT_DEPENDENT) == (0, 1, 2)
