import csv
import json

import numpy as np
import pytest

from projgeo.cli import main
from projgeo.geodesics import evaluate, minimal_exponent
from projgeo.serialize import (
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    read_pair,
)
from projgeo.suites import run_suite


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_matrix_schema(self):
        obj = matrix_to_json(np.array([[1.0 + 2.0j]]))
        assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

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

    def test_inconsistent_flags(self, tmp_path, capsys):
        rc = main(["gen", "--dims", "1,2,3", "--out", str(tmp_path / "x.json")])
        assert rc != 0
        assert "5 entries" in capsys.readouterr().err

    def test_missing_mode(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x.json")])
        assert rc != 0


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
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    def test_csv_equals_per_point_reference(self, tmp_path, capsys):
        # n = 32: a sampling chunk holds 64 points, so 131 points span four
        pair = self.make_pair(tmp_path, "8,8,0,0,16", None, seed=4)
        csv_path = tmp_path / "samples.csv"
        samples = 130
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
        "text",
        [
            "[]",
            '{"P": {"rows": 1, "cols": 1, "data": [1.0]},'
            ' "Q": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
            '{"P": {"rows": null, "cols": 1, "data": [[1.0, 0.0]]},'
            ' "Q": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
        ],
        ids=["empty-list", "bare-number-entry", "null-rows"],
    )
    def test_malformed_pair_file_is_usage_error(self, tmp_path, capsys, text):
        pair = tmp_path / "pair.json"
        pair.write_text(text)
        rc = main(["geodesic", "--in", str(pair)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestVerifyCommand:
    def test_identities_suite(self, capsys):
        rc = main(["verify", "--suite", "identities", "--trials", "50", "--seed", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert report["worst_residual"] <= 1e-11
        assert len(report["records"]) == 50

    def test_zero_trials_vacuous(self, capsys):
        rc = main(["verify", "--suite", "existence", "--trials", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 0 and report["failures"] == 0

    def test_unknown_suite_exit_64(self, capsys):
        rc = main(["verify", "--suite", "nope"])
        assert rc == 64

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["verify", "--suite", "minimality", "--trials", "3", "--seed", "9"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_rank_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROJGEO_TOL_RANK", "1e-8")
        rc = main(["verify", "--suite", "identities", "--trials", "5", "--seed", "0"])
        assert rc == 0


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
