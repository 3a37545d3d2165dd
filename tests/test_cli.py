import csv
import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from projgeo import geodesics, projections, serialize, suites
from projgeo.cli import main
from projgeo.geodesics import evaluate, minimal_exponent
from projgeo.projections import pair_with_dims
from projgeo.serialize import (
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    read_pair,
    write_pair,
)
from projgeo.suites import run_suite
from reference_pipeline import reference_dumps, reference_matrix_from_json, reference_pair_json

BIG = 1.7976931348623157e308
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, BIG, -BIG, 1e-300, 1e16, 1e17]
# every shape from 0x0 up to 12x12, 0xk among them
FLOAT_ARRAYS = arrays(
    np.float64,
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(EDGE_FLOATS),
        st.integers(-(10**6), 10**6).map(float),
    ),
)

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-(2**70), 2**70))
NOT_FLOATS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(2**1024, 2**1100))
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=2), st.none())
# a malformed entry: a ragged list, a tuple, a bare value, or a pair with
# NaN, inf, an int beyond the float range or a non-number on either side
BAD_ENTRIES = st.one_of(
    st.lists(FINITE, max_size=4).filter(lambda e: len(e) != 2),
    st.tuples(FINITE, FINITE),
    st.one_of(FINITE, NOT_FLOATS, NOT_NUMBERS),
    *(st.tuples(bad, FINITE, st.booleans()).map(lambda t: [t[0], t[1]] if t[2] else [t[1], t[0]])
      for bad in (NOT_FLOATS, NOT_NUMBERS)),
)


@st.composite
def _matrix_objects(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    data = draw(st.lists(st.lists(FINITE, min_size=2, max_size=2),
                         min_size=rows * cols, max_size=rows * cols))
    for _ in range(draw(st.integers(0, 2)) if data else 0):
        data[draw(st.integers(0, len(data) - 1))] = draw(BAD_ENTRIES)
    if draw(st.integers(0, 7)) == 7:  # a count that does not match
        data.append([0.5, 0.0])
    return {"rows": rows, "cols": cols, "data": data}


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(json.loads(dumps_canonical(matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_matrix_schema(self):
        obj = json.loads(dumps_canonical(matrix_to_json(np.array([[1.0 + 2.0j]]))))
        assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

    @pytest.mark.parametrize(
        "data",
        [
            [[True, 0.0]],
            [[1, False]],
            [[True, False]],
            [[0.5, 0.25], [1, 0], [0.5, False], [0.75, 0.5]],
        ],
    )
    def test_boolean_entries_are_rejected(self, data):
        with pytest.raises(ValueError, match="pairs of numbers"):
            matrix_from_json({"rows": 1, "cols": len(data), "data": data})

    @pytest.mark.parametrize(
        "data",
        [[[0.5, "1"]], [[None, 0.0]], [[0.5]], [[0.5, 0.0, 0.0]], [(0.5, 0.0)], [0.5],
         [[0.5], [0, 0, 0]]],
        ids=["string", "null", "short", "long", "tuple", "bare-number", "ragged-right-total"],
    )
    def test_entries_must_be_number_pairs(self, data):
        with pytest.raises(ValueError, match="pairs of numbers"):
            matrix_from_json({"rows": 1, "cols": len(data), "data": data})

    @settings(max_examples=400, deadline=None)
    @given(_matrix_objects())
    @example({"rows": 1, "cols": 2, "data": [[0.5], [0, 0, 0]]})
    @example({"rows": 1, "cols": 1, "data": [[2**1024, 0]]})
    @example({"rows": 1, "cols": 2, "data": [[0.5, 0.0], [np.inf, 1]]})
    def test_matrix_from_json_matches_reference(self, obj):
        # the same bits, or the same exception with the same message
        outcomes = []
        for reader in (matrix_from_json, reference_matrix_from_json):
            try:
                m = reader(obj)
                outcomes.append((m.dtype, m.shape, m.tobytes()))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_any_int_that_floats_is_a_number(self):
        # 2**64 overflows every numpy integer type, not the float
        m = matrix_from_json({"rows": 1, "cols": 2, "data": [[2**63, 0], [2**64, -1]]})
        assert m.tolist() == [[2.0**63, 2.0**64 - 1j]]
        with pytest.raises(ValueError, match="pairs of numbers"):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[10**400, 0]]})

    def test_overflowing_float_is_non_finite(self):
        obj = json.loads('{"rows": 1, "cols": 1, "data": [[1e400, 0]]}')
        with pytest.raises(ValueError, match="non-finite"):
            matrix_from_json(obj)

    @settings(max_examples=150, deadline=None)
    @given(FLOAT_ARRAYS)
    def test_float_array_renders_as_its_list(self, a):
        assert dumps_canonical(a) == reference_dumps(a.tolist())
        payload = {"x": [1, {"data": a}], "y": a.T}
        expected = {"x": [1, {"data": a.tolist()}], "y": a.T.tolist()}
        assert dumps_canonical(payload) == reference_dumps(expected)

    @settings(max_examples=60, deadline=None)
    @given(FLOAT_ARRAYS, st.data())
    def test_non_finite_entry_raises_as_reference(self, a, data):
        assume(a.size)
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, a.size - 1))
            a.flat[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError) as ours:
            dumps_canonical({"data": a})
        with pytest.raises(ValueError) as reference:
            reference_dumps({"data": a.tolist()})
        assert str(ours.value) == str(reference.value)

    @pytest.mark.parametrize("row", [(), (2,), (3, 2)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("chunks", ["0", "1", "chunk-1", "chunk", "chunk+1"])
    def test_array_at_the_chunk_edges_renders_as_its_list(self, row, chunks):
        # the writer renders an array's rows in chunks of _CHUNK_ENTRIES entries
        chunk = serialize._CHUNK_ENTRIES // int(np.prod(row))
        rows = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}
        a = np.random.default_rng(5).standard_normal((rows[chunks], *row))
        assert dumps_canonical({"x": [a]}) == reference_dumps({"x": [a.tolist()]})

    def test_dumps_is_valid_json(self):
        payload = {"a": 1, "b": [1.5, True, None, "x"], "c": {"d": np.pi}}
        text = dumps_canonical(payload)
        assert json.loads(text) == {
            "a": 1,
            "b": [1.5, True, None, "x"],
            "c": {"d": json.loads(format(np.pi, ".17g"))},
        }

    def test_seventeen_digit_floats(self):
        text = dumps_canonical({"x": 1.0471975511965976})
        assert "1.0471975511965976" in text


class TestGen:
    def test_writes_pair_and_reports_dims(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(
            [
                "gen",
                "--dims",
                "0,0,1,1,2",
                "--angles",
                "0.7",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"] == [1, 1]
        assert report["dims"] == {"m11": 0, "m00": 0, "m10": 1, "m01": 1, "generic": 2}
        p, q = read_pair(out)
        assert p.shape == (4, 4)

    def test_equal_rank_one_pair(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(["gen", "--dims", "1,1,0,0,0", "--seed", "0", "--out", str(out)])
        assert rc == 0
        p, q = read_pair(out)
        assert np.allclose(p, q)
        assert p.shape == (2, 2)

    def test_mixed_index_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(["gen", "--dims", "0,0,1,0,0", "--seed", "0", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "index mismatch" in captured.err
        assert out.exists()

    def test_ranks_mode(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(
            ["gen", "--dim", "6", "--ranks", "2,3", "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        p, q = read_pair(out)
        assert abs(np.trace(p).real - 2) <= 1e-12
        assert abs(np.trace(q).real - 3) <= 1e-12

    @pytest.mark.parametrize(
        "flags",
        [["--dims", "2,1,1,1,6", "--seed", "4"], ["--dim", "6", "--ranks", "2,3", "--seed", "4"]],
        ids=["dims", "ranks"],
    )
    def test_pair_file_equals_reference_dumper(self, tmp_path, capsys, flags):
        out = tmp_path / "pair.json"
        assert main(["gen", *flags, "--out", str(out)]) == 0
        expected = reference_dumps(reference_pair_json(*read_pair(out))) + "\n"
        assert out.read_text() == expected

    def test_nan_angle_exits_two(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        rc = main(["gen", "--dims", "0,0,0,0,2", "--angles", "nan", "--out", str(out)])
        assert rc == 2
        assert "strictly in (0, pi/2)" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_pair_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main(["gen", "--dim", "0", "--ranks", "0,0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: total dimension is zero\n"
        assert not out.exists()

    def test_inconsistent_flags(self, tmp_path, capsys):
        rc = main(["gen", "--dims", "1,2,3", "--out", str(tmp_path / "x.json")])
        assert rc != 0
        assert "5 entries" in capsys.readouterr().err

    def test_missing_mode(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x.json")])
        assert rc != 0

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--ranks", "2,2", "--dim", "4", "--angles", "0.3"], "--angles requires --dims"),
            (["--angles", "0.3"], "--angles requires --dims"),
            (["--dims", "2,2,3,3,6", "--dim", "9"], "--dim requires --ranks"),
            (["--dim", "4"], "--dim requires --ranks"),
        ],
        ids=["angles-with-ranks", "angles-alone", "dim-with-dims", "dim-alone"],
    )
    def test_flag_of_the_other_mode_is_a_usage_error(self, tmp_path, capsys, flags, message):
        # neither flag is read in the other mode, so it must not pass unseen
        out = tmp_path / "x.json"
        rc = main(["gen", *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestGeodesicCommand:
    def make_pair(self, tmp_path, dims, angles, seed=1):
        out = tmp_path / "pair.json"
        args = ["gen", "--dims", dims, "--seed", str(seed), "--out", str(out)]
        if angles:
            args += ["--angles", angles]
        assert main(args) == 0
        return out

    def test_rotation_norm(self, tmp_path, capsys):
        theta = np.pi / 3
        pair = self.make_pair(tmp_path, "0,0,0,0,2", format(theta, ".17g"))
        capsys.readouterr()
        rc = main(["geodesic", "--in", str(pair)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["norm_Z"] - 1.0471975512) <= 1e-9
        assert report["unique"] is True

    def test_equal_pair(self, tmp_path, capsys):
        pair = self.make_pair(tmp_path, "2,1,0,0,0", None)
        capsys.readouterr()
        rc = main(["geodesic", "--in", str(pair), "--samples", "100"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["norm_Z"] == 0.0
        assert report["endpoint_error"] <= 1e-12

    def test_mixed_index_exits_two(self, tmp_path, capsys):
        pair = self.make_pair(tmp_path, "0,0,1,0,0", None)
        capsys.readouterr()
        rc = main(["geodesic", "--in", str(pair)])
        assert rc == 2
        assert "no geodesic: index (1, 0)" in capsys.readouterr().err

    def test_refusal_splits_the_pair_once(self, tmp_path, capsys, monkeypatch):
        pair = tmp_path / "pair.json"
        write_pair(pair, *pair_with_dims(1, 1, 2, 1, 2, [0.6], seed=3))
        calls = []
        real = projections._split

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(projections, "_split", counted)
        rc = main(["geodesic", "--in", str(pair)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "no geodesic: index (2, 1)\n"
        assert len(calls) == 1

    def test_csv_samples(self, tmp_path, capsys):
        pair = self.make_pair(tmp_path, "0,0,0,0,2", "0.9")
        csv_path = tmp_path / "samples.csv"
        rc = main(
            [
                "geodesic",
                "--in",
                str(pair),
                "--samples",
                "10",
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 12  # header + 11 samples
        assert lines[0].split(",")[0] == "t"
        assert len(lines[0].split(",")) == 1 + 2 * 4

    @pytest.mark.parametrize("samples", [0, 1, -2])
    def test_too_few_samples_is_usage_error(self, tmp_path, capsys, samples):
        pair = self.make_pair(tmp_path, "0,0,0,0,2", "0.9")
        csv_path = tmp_path / "samples.csv"
        capsys.readouterr()
        rc = main(["geodesic", "--in", str(pair), "--samples", str(samples),
                   "--csv", str(csv_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: --samples must be >= 2, got {samples}\n")
        assert not csv_path.exists()

    def test_samples_past_the_float_range_is_usage_error(self, tmp_path, capsys):
        # the grid's refusal is a ValueError: exit 2, not a traceback and the
        # suite-failure code
        pair = self.make_pair(tmp_path, "0,0,0,0,2", "0.9")
        capsys.readouterr()
        rc = main(["geodesic", "--in", str(pair), "--samples", str(2**1024)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: grid must lie in the float range, got a 1025-bit integer\n"

    def test_too_few_samples_is_refused_before_reading(self, tmp_path, capsys):
        # the flag is refused before any I/O, so a missing --in file is not read
        csv_path = tmp_path / "samples.csv"
        rc = main(["geodesic", "--in", str(tmp_path / "missing.json"), "--samples", "1",
                   "--csv", str(csv_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --samples must be >= 2, got 1\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "dims,samples",
        # a sampling chunk holds 64 points at n = 32 and 16 at n = 64, so
        # 131 points span three chunks and 21 span two
        [("8,8,0,0,16", 130), ("16,16,0,0,32", 20)],
        ids=["n32", "n64"],
    )
    def test_csv_equals_per_point_reference(self, tmp_path, capsys, dims, samples):
        pair = self.make_pair(tmp_path, dims, None, seed=4)
        csv_path = tmp_path / "samples.csv"
        rc = main(["geodesic", "--in", str(pair), "--samples", str(samples),
                   "--csv", str(csv_path)])
        assert rc == 0
        seg = minimal_exponent(*read_pair(pair))
        n = seg.base.shape[0]
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + [f"{part}_{i}_{j}" for i in range(n)
                                     for j in range(n) for part in ("re", "im")])
            for k in range(samples + 1):
                t = k / samples
                row = [format(t, ".17g")]
                for z in evaluate(seg, t).ravel():
                    row += [format(z.real, ".17g"), format(z.imag, ".17g")]
                writer.writerow(row)
        assert csv_path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", "a pair must be an object with P and Q"),
            ('{"P": {"rows": 1, "cols": 1, "data": [1.0]},'
             ' "Q": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
             "matrix data entries must be [re, im] pairs of numbers"),
            ('{"P": {"rows": null, "cols": 1, "data": [[1.0, 0.0]]},'
             ' "Q": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
             "rows and cols must be ints >= 0, got None and 1"),
            ('{"P": {"rows": 1, "cols": 1, "data": [[true, 0.0]]},'
             ' "Q": {"rows": 1, "cols": 1, "data": [[1, false]]}}',
             "matrix data entries must be [re, im] pairs of numbers"),
            ('{"P": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},'
             ' "Q": {"rows": 1, "cols": 2, "data": [[1.0, 0.0]]}}',
             "matrix data must be a list of 2 entries"),
            ('{"P": {"rows": -1, "cols": 1, "data": []},'
             ' "Q": {"rows": 1, "cols": 1, "data": [[true, 0.0]]}}',
             "rows and cols must be ints >= 0, got -1 and 1"),
            ('{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}',
             "a pair must be an object with P and Q"),
            ('{"P": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
             "a pair must be an object with P and Q"),
            ("[" * 100_000 + "]" * 100_000,
             "pair file nests deeper than the JSON parser allows"),
        ],
        ids=["empty-list", "bare-number-entry", "null-rows", "boolean-entries",
             "invalid-q-after-valid-p", "p-judged-before-q", "top-level-matrix", "no-q",
             "too-deep"],
    )
    def test_malformed_pair_file_is_usage_error(self, tmp_path, capsys, text, message):
        pair = tmp_path / "pair.json"
        pair.write_text(text)
        rc = main(["geodesic", "--in", str(pair)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"P": {"rows": 1, "cols": 2, "data": [[0.5, 0.0], [0.0, -0.5]], "name": "p"},'
            ' "Q": {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0]]}}',
            '{"P": {"rows": 1, "cols": 2, "data": [[0.5, 0.0], [0.0, -0.5]]},'
            ' "R": {"rows": 1, "cols": 1, "data": [[true, 0.0]]},'
            ' "Q": {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0]]}}',
        ],
        ids=["extra-key-in-p", "invalid-matrix-under-unused-key"],
    )
    def test_pair_file_reads_past_what_it_does_not_use(self, tmp_path, text):
        pair = tmp_path / "pair.json"
        pair.write_text(text)
        p, q = read_pair(pair)
        assert p.tolist() == [[0.5, -0.5j]] and q.tolist() == [[1.0, 0.0]]


class TestPairFiles:
    # n = 128 pair files: the writer checks both matrices before it opens the
    # file and then holds the text of one array at a time, the reader the
    # number lists of one matrix (traced peaks against the file's size)
    PAIR = pair_with_dims(32, 32, 0, 0, 64, np.linspace(0.2, 1.3, 32), seed=4)

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak(self, tmp_path):
        path = tmp_path / "pair.json"
        peak = self.traced_peak(write_pair, path, *self.PAIR)
        assert peak <= 1.6 * path.stat().st_size

    def test_write_peak_is_a_chunk_not_the_file(self, tmp_path):
        path = tmp_path / "pair.json"
        pair = pair_with_dims(64, 64, 0, 0, 128, np.linspace(0.2, 1.3, 64), seed=4)
        peak = self.traced_peak(write_pair, path, *pair)
        assert peak <= 0.25 * path.stat().st_size

    def test_read_peak(self, tmp_path):
        path = tmp_path / "pair.json"
        write_pair(path, *self.PAIR)
        peak = self.traced_peak(read_pair, path)
        assert peak <= 2.5 * path.stat().st_size

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text",
        [None, '{"P": {"rows": 1, "cols": 1, "data": [[true, 0.0]]}, "Q": 1}', '{"P": [1,',
         "[" * 100_000 + "]" * 100_000],
        ids=["valid", "invalid-matrix", "invalid-json", "too-deep"],
    )
    def test_read_restores_the_collector(self, tmp_path, enabled, text):
        path = tmp_path / "pair.json"
        if text is None:
            write_pair(path, *self.PAIR)
        else:
            path.write_text(text)
        if not enabled:
            gc.disable()
        try:
            if text is None:
                read_pair(path)
            else:
                with pytest.raises(ValueError):
                    read_pair(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_read_triggers_no_collection(self, tmp_path):
        # with the collector running, this parse starts 46 collections, none
        # of which can free anything; gc.collect() first empties the young
        # generation, so none falls due after the parse either
        path = tmp_path / "pair.json"
        write_pair(path, *self.PAIR)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            read_pair(path)
        finally:
            gc.callbacks.remove(record)
        assert starts == []

    @pytest.mark.parametrize("bad", ["P", "Q"])
    def test_rejected_pair_leaves_the_file(self, tmp_path, bad):
        path = tmp_path / "pair.json"
        write_pair(path, *self.PAIR)
        before = path.read_bytes()
        p, q = (m.copy() for m in self.PAIR)
        (p if bad == "P" else q)[5, 7] = np.nan
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            write_pair(path, p, q)
        assert path.read_bytes() == before


class TestToleranceFlag:
    # an angle of 1e-7 is generic at the default rank threshold of 1e-10 and
    # aligned at 1e-6: the pair then splits into R(P) & R(Q) and N(P) & N(Q)
    def make_pair(self, tmp_path, flags):
        out = tmp_path / "pair.json"
        args = ["gen", "--dims", "1,1,0,0,2", "--angles", "1e-7", "--seed", "1",
                "--out", str(out), *flags]
        assert main(args) == 0
        return out

    @pytest.mark.parametrize(
        "flags,dims,norm_z",
        [([], {"m11": 1, "m00": 1, "m10": 0, "m01": 0, "generic": 2}, 1e-7),
         (["--tol-rank", "1e-6"], {"m11": 2, "m00": 2, "m10": 0, "m01": 0, "generic": 0}, 0.0)],
        ids=["default", "tol-rank"],
    )
    def test_tol_rank_reaches_gen_and_geodesic(self, tmp_path, capsys, flags, dims, norm_z):
        pair = self.make_pair(tmp_path, flags)
        assert json.loads(capsys.readouterr().out)["dims"] == dims
        assert main(["geodesic", "--in", str(pair), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["norm_Z"] == pytest.approx(norm_z, abs=1e-14)

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--dims", "0,0,0,0,2"], ["geodesic", "--in", "pair.json"],
         ["verify", "--suite", "identities"]],
        ids=["gen", "geodesic", "verify"],
    )
    def test_tol_recon_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--tol-recon", "1e-12"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol-recon" in capsys.readouterr().err


class TestVerifyCommand:
    def test_identities_suite(self, capsys):
        rc = main(["verify", "--suite", "identities", "--trials", "50", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert list(report["checks"]) == ["identities.residual"]
        assert report["checks"]["identities.residual"] <= 1e-11
        assert len(report["records"]) == 50

    def test_zero_trials_vacuous(self, capsys):
        rc = main(["verify", "--suite", "existence", "--trials", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 0 and report["failures"] == 0
        assert report["checks"] == {} and report["records"] == []

    def test_a_trial_that_raises_fails_its_record(self, monkeypatch, capsys):
        # an exponent scaled past pi/2 is a fault of the library, not of the
        # command line: each trial that meets it is a failed record naming
        # the refusal, and the run still writes its report
        real = geodesics._exponent
        monkeypatch.setattr(geodesics, "_exponent", lambda fs, pairing: real(fs, pairing) * (1 + 1e-9))
        rc = main(["verify", "--suite", "lifting", "--trials", "200", "--seed", "11"])
        assert rc == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        raised = [r for r in report["records"] if "error" in r]
        assert raised and all(
            set(r) == {"trial", "seed", "error", "ok"}
            and r["error"].startswith("NormTooLarge: |z| = ")
            and not r["ok"]
            for r in raised
        )
        assert report["failures"] >= len(raised)
        assert f"NormTooLarge {len(raised)}" in err

    @pytest.mark.parametrize("check", ["identities.residual", "uniqueness.min_separation"])
    def test_a_nan_anywhere_reports_one_worst(self, monkeypatch, capsys, check):
        # a NaN measured at seed 5, the first trial of one run and the second
        # of the other, is the same null worst in both reports, and fails
        passing = 1.0 if ".min_" in check else 0.0

        def nan_at_5(seed, tol):
            return {}, {check: np.nan if seed == 5 else passing}

        monkeypatch.setitem(suites.SUITES, "identities", nan_at_5)
        entries = []
        for seed in ("5", "4"):
            assert main(["verify", "--suite", "identities", "--trials", "3", "--seed", seed]) == 1
            out, err = capsys.readouterr()
            records = json.loads(out)["records"]
            assert [r["ok"] for r in records] == [r["seed"] != 5 for r in records]
            assert err.endswith(f"1 failures; failed: {check} 1\n")
            entries.append(json.loads(out)["checks"])
        assert entries == [{check: None}] * 2

    def test_unknown_suite_exit_64(self, capsys):
        rc = main(["verify", "--suite", "nope"])
        assert rc == 64

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["verify", "--suite", "minimality", "--trials", "3", "--seed", "9"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process: each call, after the others,
    # exits and writes as the same call does in a fresh interpreter
    pair = str(tmp_path / "pair.json")
    calls = [
        ["gen", "--dims", "2,1,1,1,6", "--seed", "3", "--out", pair],
        ["geodesic", "--in", pair, "--samples", "5"],
        ["gen", "--dims", "1,1,0,0,2", "--ranks", "1,1"],
        ["geodesic", "--samples", "5"],  # the parser refuses it: no --in
        ["verify", "--suite", "identities", "--trials", "3", "--seed", "2"],
    ]
    here = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here.append((code, *capsys.readouterr()))
    src = str(Path(projections.__file__).parents[1])
    fresh = [
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
             f"from projgeo.cli import main; sys.exit(main({argv!r}))"],
            capture_output=True, text=True, timeout=120,
        )
        for argv in calls
    ]
    assert here == [(run.returncode, run.stdout, run.stderr) for run in fresh]
    assert [code for code, _, _ in here] == [0, 0, 2, 2, 0]


class TestSuites:
    @pytest.mark.parametrize(
        "name,trials",
        [
            ("existence", 25),
            ("uniqueness", 10),
            ("minimality", 4),
            ("lifting", 8),
            ("normlift", 25),
            ("identities", 50),
        ],
    )
    def test_all_suites_pass(self, name, trials):
        report = run_suite(name, trials, seed=123)
        assert report.failures == 0
        assert len(report.records) == trials

    def test_determinism(self):
        a = run_suite("uniqueness", 6, seed=5).to_json()
        b = run_suite("uniqueness", 6, seed=5).to_json()
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus", 1, seed=0)
