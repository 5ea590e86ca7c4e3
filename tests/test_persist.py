"""Checkpoint container format: exact round-trips and corruption rejection."""

import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaternet.persist import (
    CheckpointError,
    atomic_write_bytes,
    dict_hash,
    load_checkpoint,
    save_checkpoint,
    write_csv,
)
from oracles import csv_writer_reference


def sample_tensors() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    return {
        "w.f32": rng.standard_normal((3, 2, 4)).astype(np.float32),
        "w.f64": rng.standard_normal((5,)),
        "n.i64": rng.integers(-9, 9, (2, 2)),
        "flag.u8": np.array([0, 1, 1], dtype=np.uint8),
        "scalar": np.float32(2.5),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }


class TestRoundTrip:
    def test_values_dtypes_shapes_exact(self, tmp_path):
        path = tmp_path / "a.ckpt"
        meta = {"seed": 3, "note": "x", "nested": {"k": [1, 2]}}
        save_checkpoint(path, sample_tensors(), meta)
        tensors, meta_back = load_checkpoint(path)
        assert meta_back == meta
        assert set(tensors) == set(sample_tensors())
        for name, want in sample_tensors().items():
            got = tensors[name]
            assert got.shape == np.asarray(want).shape, name
            assert got.dtype == np.asarray(want).dtype.newbyteorder("<"), name
            assert np.array_equal(got, want), name

    def test_big_endian_input_normalized(self, tmp_path):
        be = np.arange(4, dtype=">f4")
        path = tmp_path / "be.ckpt"
        save_checkpoint(path, {"x": be}, {})
        (back,) = load_checkpoint(path)[0].values()
        assert back.dtype == np.dtype("<f4")
        assert np.array_equal(back, be.astype("<f4"))

    def test_save_is_deterministic_and_order_free(self, tmp_path):
        tensors = sample_tensors()
        reversed_order = dict(reversed(list(tensors.items())))
        save_checkpoint(tmp_path / "a.ckpt", tensors, {"b": 1, "a": 2})
        save_checkpoint(tmp_path / "b.ckpt", reversed_order, {"a": 2, "b": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), max_size=20))
    def test_arbitrary_f32_payloads(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "h.ckpt"
        arr = np.array(values, dtype=np.float32)
        save_checkpoint(path, {"v": arr}, {})
        assert np.array_equal(load_checkpoint(path)[0]["v"], arr)


class TestCorruption:
    def make(self, tmp_path) -> bytes:
        path = tmp_path / "good.ckpt"
        save_checkpoint(path, sample_tensors(), {"k": 1})
        return path.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        blob = self.make(tmp_path)
        (tmp_path / "bad.ckpt").write_bytes(b"ZZZZ" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_wrong_version(self, tmp_path):
        blob = self.make(tmp_path)
        (tmp_path / "v9.ckpt").write_bytes(blob[:4] + b"\x09\x00\x00\x00" + blob[8:])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path / "v9.ckpt")

    @pytest.mark.parametrize("keep", [3, 7, 11, 40])
    def test_truncation_anywhere(self, tmp_path, keep):
        blob = self.make(tmp_path)
        (tmp_path / "cut.ckpt").write_bytes(blob[:keep])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_truncated_final_payload(self, tmp_path):
        blob = self.make(tmp_path)
        (tmp_path / "cut.ckpt").write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_trailing_bytes(self, tmp_path):
        blob = self.make(tmp_path)
        (tmp_path / "pad.ckpt").write_bytes(blob + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(tmp_path / "pad.ckpt")


def crafted_blob(meta=b"{}", tag=b"<f4", shape=(2,), payload=bytes(8),
                 copies=1, name=b"x") -> bytes:
    """A checkpoint holding `copies` tensors all named name, built field by field."""
    entry = (struct.pack("<H", len(name)) + name
             + struct.pack("<B", len(tag)) + tag
             + struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
             + struct.pack("<Q", len(payload)) + payload)
    return (b"GNCP" + struct.pack("<IQ", 1, len(meta)) + meta
            + struct.pack("<I", copies) + entry * copies)


class TestMalformedFields:
    def test_crafted_blob_is_valid(self, tmp_path):
        (tmp_path / "ok.ckpt").write_bytes(crafted_blob())
        tensors, meta = load_checkpoint(tmp_path / "ok.ckpt")
        assert meta == {} and np.array_equal(tensors["x"], np.zeros(2, "<f4"))

    @pytest.mark.parametrize("fields, match", [
        ({"meta": b"{not json"}, "metadata"),
        ({"meta": b"\xff\xfe"}, "metadata"),
        ({"meta": b"[1, 2]"}, "not a JSON object"),
        ({"tag": b"zz9"}, "dtype"),
        ({"tag": b"(1,"}, "dtype"),
        ({"tag": b"|O"}, "dtype"),
        ({"tag": b"|V0"}, "dtype"),
        ({"payload": bytes(7)}, "payload"),
        ({"payload": bytes(12)}, "payload"),
        ({"shape": (1,) * 70, "payload": bytes(4)}, "shape"),
        ({"copies": 2}, "tensor x appears twice"),
        ({"tag": b"<f3"}, "dtype"),
        # numpy parses the alias with a DeprecationWarning
        ({"tag": b"<a8"}, "unsupported dtype"),
        ({"name": b"x\ny", "tag": b"zz9"}, "not printable"),
    ])
    def test_raises_checkpoint_error(self, tmp_path, fields, match):
        (tmp_path / "bad.ckpt").write_bytes(crafted_blob(**fields))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(tmp_path / "bad.ckpt")

    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(0, 10**6),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                          max_size=4))
    def test_corrupt_bytes_raise_only_checkpoint_error(self, tmp_path_factory,
                                                       cut, edits):
        path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
        save_checkpoint(path, sample_tensors(), {"k": [1, "v"]})
        blob = bytearray(path.read_bytes())
        for pos, value in edits:
            blob[pos % len(blob)] = value
        path.write_bytes(bytes(blob[: cut % (len(blob) + 1)]))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


class TestAtomicWrite:
    def test_no_temp_leftovers(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"abc")
        assert (tmp_path / "x.bin").read_bytes() == b"abc"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_overwrite_replaces(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"one")
        atomic_write_bytes(tmp_path / "x.bin", b"two")
        assert (tmp_path / "x.bin").read_bytes() == b"two"

    def test_makes_parent_dirs(self, tmp_path):
        atomic_write_bytes(tmp_path / "a" / "b" / "x.bin", b"z")
        assert (tmp_path / "a" / "b" / "x.bin").exists()

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077],
                             ids=["022", "027", "077"])
    def test_mode_is_a_plain_open_mode(self, tmp_path, umask):
        """Under a fixed umask, a new file and an overwritten one both get
        the mode open(path, "w") gives, 0o666 without the umask bits."""
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.bin", "w"):
                pass
            atomic_write_bytes(tmp_path / "x.bin", b"one")
            first = stat.S_IMODE((tmp_path / "x.bin").stat().st_mode)
            (tmp_path / "x.bin").chmod(0o600)
            atomic_write_bytes(tmp_path / "x.bin", b"two")
            second = stat.S_IMODE((tmp_path / "x.bin").stat().st_mode)
        finally:
            os.umask(old)
        assert first == second == 0o666 & ~umask
        assert stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode) == first


def float64_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every float64: drawn as a float (NaN, infinities and subnormals
# included) or as a raw 64-bit pattern
ANY_FLOAT64 = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
               | st.integers(0, 2**64 - 1).map(float64_from_bits))


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        write_csv(tmp_path / "x.csv", ["i", "s", "f", "e"], "%d,%s,%s,%s", [
            np.array([1, -2]), ["x", "y z"], [0.1, 1e-05], ["", 3.0]])
        assert (tmp_path / "x.csv").read_bytes() == (
            b"i,s,f,e\n1,x,0.1,\n-2,y z,1e-05,3.0\n")

    def test_zero_rows_write_the_header(self, tmp_path):
        write_csv(tmp_path / "x.csv", ["i", "x", "s"], "%d,%.8e,%s",
                  [np.zeros(0, np.int64), np.zeros(0), []])
        assert (tmp_path / "x.csv").read_bytes() == b"i,x,s\n"

    @pytest.mark.parametrize("header, row_format, row", [
        (["i", "s"], "%d,%s", (1, "y,z")),
        (["i", "s"], "%d,%s", (1, 'say "x"')),
        (["i", "s"], "%d,%s", (1, "a\rb")),
        (["i", "s"], "%d,%s", (1, "a\nb")),
        (["s"], "%s", ("a\nb",)),
        (["i", "s,t"], "%d,%s", (1, "x")),
    ])
    def test_refuses_a_field_that_needs_quoting(self, tmp_path, header,
                                                row_format, row):
        path = tmp_path / "x.csv"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match="x.csv"):
            write_csv(path, header, row_format,
                      [[first, v] for first, v in zip((0, "ok"), row)])
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    @pytest.mark.parametrize("row_format, column, match", [
        ("%f", [0.5], "unknown field spec '%f'"),
        ("%.6e", [0.5], "unknown field spec '%.6e'"),
        ("%5d", [1], "unknown field spec '%5d'"),
        ("%d,%d", [1], "1 header fields, 2 specs"),
        ("%d", np.array([0.5]), "%d needs an integer column, got dtype float64"),
    ])
    def test_refuses_a_spec_it_does_not_render(self, tmp_path, row_format,
                                               column, match):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=match):
            write_csv(path, ["x"], row_format, [column])
        assert not path.exists()

    def test_refuses_columns_of_different_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="columns of 2 and 1 rows"):
            write_csv(tmp_path / "x.csv", ["a", "b"], "%d,%s",
                      [np.arange(2), ["x"]])
        assert not (tmp_path / "x.csv").exists()

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.integers(-10**20, 10**20),
        st.floats(width=64) | st.floats(width=32),
        st.text(st.characters(blacklist_characters=',"\r\n',
                              blacklist_categories=("Cs",))),
        st.sampled_from(["", "joint", "pretrain_gater"]),
    ), max_size=8))
    def test_str_template_matches_csv_writer(self, tmp_path_factory, rows):
        """A "%s" column holds what csv.writer wrote for ints, floats and
        strings that need no quoting, "" included: the metrics and sweep
        CSVs' contract."""
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        header = ["n", "x", "text", "phase"]
        write_csv(path, header, "%s,%s,%s,%s",
                  [[r[i] for r in rows] for i in range(len(header))])
        assert path.read_bytes() == csv_writer_reference(header, rows)

    @settings(max_examples=200)
    @given(st.lists(ANY_FLOAT64, min_size=1, max_size=16))
    @example([0.0, -0.0])
    @example([5e-324])
    @example([1e22])
    @example([1e23])
    @example([99999999.95])  # scales onto a tie: 999999999.5
    @example([0.5])
    @example([999999999.7, -9.9999999996e-3])  # round up to 1.00000000
    # one multiply by the inexact 10.0**23 would round these the wrong way
    @example([8.655618035e31, 9.005390505e-15])
    def test_e8_column_matches_percent_operator(self, tmp_path_factory, values):
        """A %.8e column, formatted in numpy, is Python's '%.8e' % x for
        every float64, byte for byte."""
        path = tmp_path_factory.mktemp("csv") / "e.csv"
        write_csv(path, ["x"], "%.8e", [np.array(values)])
        assert path.read_text() == "".join(
            ["x\n", *("%.8e\n" % x for x in values)])

    @settings(max_examples=200)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=16))
    @example([0, -1, 2**63 - 1, -2**63])
    def test_int_column_matches_percent_operator(self, tmp_path_factory, values):
        """A %d column of int64s, formatted in numpy, is Python's '%d' % v."""
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_csv(path, ["v"], "%d", [np.array(values, dtype=np.int64)])
        assert path.read_text() == "".join(["v\n", *("%d\n" % v for v in values)])

    @given(st.floats(allow_subnormal=True))
    @example(-0.0)
    @example(0.0)
    @example(float("nan"))
    @example(-float("nan"))
    @example(float("inf"))
    @example(-float("inf"))
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    def test_percent_e_matches_format_spec(self, v):
        """The %-template form writes every float as f"{v:.8e}" did."""
        assert "%.8e" % v == f"{v:.8e}"


class TestDictHash:
    def test_key_order_invariant(self):
        assert dict_hash({"a": 1, "b": [2, 3]}) == dict_hash({"b": [2, 3], "a": 1})

    def test_value_sensitive(self):
        assert dict_hash({"a": 1}) != dict_hash({"a": 2})
        assert dict_hash({"a": 1}) != dict_hash({"a": 1, "b": None})
