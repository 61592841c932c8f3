"""In-process tests of the command-line interface: exit codes, text and JSON
output shapes, certificate round trips, and budget handling."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import clutterforge.cli
import clutterforge.matroid
import clutterforge.verify
from clutterforge.cli import EXIT_ERROR, EXIT_OK, EXIT_UNKNOWN, main


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_space(tmp_path, name, q, n, rows):
    lines = [f"{q} {n}"] + [" ".join(str(v) for v in row) for row in rows]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def gf4_plane(tmp_path):
    """Ideal 16-point plane over GF(4) that still has a q6 minor."""
    return write_space(tmp_path, "gf4_plane.txt", 4, 3, [(1, 1, 0), (1, 0, 1)])


@pytest.fixture
def gf3_overlapping(tmp_path):
    """Non-ideal GF(3) instance whose supports pairwise overlap."""
    return write_space(tmp_path, "gf3_overlapping.txt", 3, 3, [(1, 1, 0), (1, 0, 1)])


@pytest.fixture
def gf8_hyperplane(tmp_path):
    """Zero-sum hyperplane of GF(8)^3: 24 ground elements, out of polyhedral reach."""
    return write_space(tmp_path, "gf8_hyperplane.txt", 8, 3, [(1, 1, 0), (1, 0, 1)])


@pytest.fixture
def gf4_u24(tmp_path):
    """GF(4)^4 plane whose matroid has all 3-subsets as circuits."""
    return write_space(tmp_path, "gf4_u24.txt", 4, 4, [(1, 0, 1, 1), (0, 1, 1, 2)])


@pytest.fixture
def gf4_k4e(tmp_path):
    """GF(4)^5 space whose matroid is the triangle with two doubled edges."""
    return write_space(tmp_path, "gf4_k4e.txt", 4, 5, [(1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)])


class TestField:
    def test_tables(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--q", 4)
        assert code == EXIT_OK
        assert "GF(4)" in out
        assert "1 | 1 0 3 2" in out  # addition row for 1
        assert "2 | 0 2 3 1" in out  # multiplication row for 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--q", 4, "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["q"] == 4
        assert data["add"][1][3] == 2
        assert data["mul"][2][2] == 3
        assert data["mul"][3][3] == 2
        assert data["add"] == [list(r) for r in zip(*data["add"])]  # commutative

    def test_non_prime_power_rejected(self, capsys):
        code, _, err = run_cli(capsys, "field", "--q", 6)
        assert code == EXIT_ERROR
        assert "NotPrimePower" in err


class TestAnalyze:
    def test_ideal_section(self, capsys, gf4_plane):
        code, out, _ = run_cli(capsys, "analyze", gf4_plane, "--ideal")
        assert code == EXIT_OK
        assert "ideal: IDEAL (0 fractional extreme points of " in out

    def test_mfmc_section_refuted(self, capsys, gf4_plane):
        code, out, _ = run_cli(capsys, "analyze", gf4_plane, "--mfmc")
        assert code == EXIT_OK
        assert "mfmc: NO" in out

    def test_minor_certificate_line(self, capsys, gf3_overlapping):
        code, out, _ = run_cli(capsys, "analyze", gf3_overlapping, "--minors")
        assert code == EXIT_OK
        assert "minor delta3: I={" in out

    def test_default_runs_every_section(self, capsys, gf4_plane):
        code, out, _ = run_cli(capsys, "analyze", gf4_plane)
        assert code == EXIT_OK
        assert out.startswith("instance: GF(4)^3 dim=2")
        for fragment in (
            "ideal: IDEAL",
            "mfmc: NO",
            "minor delta3: none (exhaustive search)",
            "minor q6: I={",
            "disjoint-support basis:",
            "series classes:",
        ):
            assert fragment in out

    def test_json_report(self, capsys, gf4_plane):
        code, out, _ = run_cli(capsys, "analyze", gf4_plane, "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"instance", "ideal", "mfmc", "minors", "structure"}
        assert report["ideal"]["verdict"] is True
        assert report["mfmc"]["verdict"] is False
        assert report["minors"]["delta3"]["present"] is False
        assert report["minors"]["q6"]["present"] is True

    def test_json_report_searches_each_minor_once(self, capsys, gf4_plane, monkeypatch):
        targets = []
        real = clutterforge.verify.find_minor

        def counting(cl, target, *args, **kwargs):
            targets.append(target)
            return real(cl, target, *args, **kwargs)

        monkeypatch.setattr(clutterforge.verify, "find_minor", counting)
        code, _, _ = run_cli(capsys, "analyze", gf4_plane, "--json")
        assert code == EXIT_OK
        assert len(targets) == 3

    def test_default_report_factors_the_space_once(self, capsys, gf4_plane, monkeypatch):
        spaces = []
        real = clutterforge.verify.factor

        def counting(space):
            spaces.append(space)
            return real(space)

        # count the calls wherever the name is bound, in verify or in the CLI
        monkeypatch.setattr(clutterforge.verify, "factor", counting)
        monkeypatch.setattr(clutterforge.cli, "factor", counting, raising=False)
        code, _, _ = run_cli(capsys, "analyze", gf4_plane)
        assert code == EXIT_OK
        assert len(spaces) == 1

    def test_json_report_builds_the_matroid_once(self, capsys, gf4_plane):
        clutterforge.matroid._matroid_cached.cache_clear()
        code, _, _ = run_cli(capsys, "analyze", gf4_plane, "--json")
        assert code == EXIT_OK
        info = clutterforge.matroid._matroid_cached.cache_info()
        assert info.misses == 1
        assert info.hits >= 3

    def test_out_of_reach_polyhedron_is_unknown(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(capsys, "analyze", gf8_hyperplane, "--ideal")
        assert code == EXIT_UNKNOWN
        assert "ideal: UNKNOWN" in out

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(bad), "--ideal")
        assert code == EXIT_ERROR
        assert "ParseError" in err

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nowhere.txt"))
        assert code == EXIT_ERROR
        assert "ParseError" in err

    def test_malformed_certificate_file(self, capsys, gf4_plane, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text("hello\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", gf4_plane, "--check-cert", str(cert))
        assert code == EXIT_ERROR
        assert "ParseError" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"3 3\n1 \xff 0\n",
            b'{"q": 3, "n": 3, "generators": [1]}',
            b'{"q": 3, "n": 3, "generators": [null]}',
            b'{"q": 3, "n": true, "generators": [[1]]}',
            b'{"q": true, "n": 1, "generators": [[1]]}',
            b'{"q": 3, "n": 2, "generators": [[true, false]]}',
            b'{"q": 3, "n": 2, "generators": [[1, "0"]]}',
        ],
        ids=["undecodable-bytes", "json-row-int", "json-row-null", "json-n-bool", "json-q-bool",
             "json-entry-bool", "json-entry-str"],
    )
    def test_unreadable_instance_is_a_parse_error(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == EXIT_ERROR
        assert err.startswith("error: ParseError")
        assert "Traceback" not in err

    def test_undecodable_certificate_is_a_parse_error(self, capsys, gf4_plane, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_bytes(b"target: q6\n\xff\n")
        code, _, err = run_cli(capsys, "analyze", gf4_plane, "--check-cert", str(cert))
        assert code == EXIT_ERROR
        assert err.startswith("error: ParseError")
        assert "Traceback" not in err


class TestWitness:
    def test_u24_chain_text(self, capsys, gf4_u24):
        code, out, _ = run_cli(capsys, "witness", gf4_u24, "--kind", "u24")
        assert code == EXIT_OK
        assert "target: delta3" in out
        assert "step 0: delete" in out
        assert "replay: isomorphic to delta3" in out
        assert "I={" in out

    def test_certificate_round_trip(self, capsys, gf4_u24, tmp_path):
        cert = tmp_path / "u24.cert"
        code, _, _ = run_cli(
            capsys, "witness", gf4_u24, "--kind", "u24", "--out", str(cert)
        )
        assert code == EXIT_OK
        text = cert.read_text(encoding="utf-8")
        assert "target: delta3" in text and "I={" in text

        code, out, _ = run_cli(capsys, "analyze", gf4_u24, "--check-cert", str(cert))
        assert code == EXIT_OK
        assert "VALID: replayed minor vs delta3 (stated label bijection)" in out

    def test_k4e_certificate_round_trip(self, capsys, gf4_k4e, tmp_path):
        cert = tmp_path / "k4e.cert"
        code, _, _ = run_cli(capsys, "witness", gf4_k4e, "--kind", "k4e", "--out", str(cert))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "analyze", gf4_k4e, "--check-cert", str(cert))
        assert code == EXIT_OK
        assert "VALID: replayed minor vs delta3" in out

    def test_tampered_certificate_rejected(self, capsys, gf4_u24, tmp_path):
        cert = tmp_path / "u24.cert"
        run_cli(capsys, "witness", gf4_u24, "--kind", "u24", "--out", str(cert))
        tampered = cert.read_text(encoding="utf-8").replace(
            "target: delta3", "target: q6"
        )
        cert.write_text(tampered, encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", gf4_u24, "--check-cert", str(cert))
        assert code == EXIT_ERROR
        assert "INVALID" in out

    def test_search_certificate_checks_too(self, capsys, gf4_plane, tmp_path):
        # certificates found by search state the bijection in the other
        # direction; the checker must accept both
        code, out, _ = run_cli(capsys, "analyze", gf4_plane, "--minors", "--json")
        assert code == EXIT_OK
        cert_line = json.loads(out)["minors"]["q6"]["certificate"]
        cert = tmp_path / "q6.cert"
        cert.write_text(f"target: q6\n{cert_line}\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", gf4_plane, "--check-cert", str(cert))
        assert code == EXIT_OK
        assert "VALID" in out

    def test_alpha_rejected_outside_c5sq(self, capsys, gf4_u24):
        code, _, err = run_cli(
            capsys, "witness", gf4_u24, "--kind", "u24", "--alpha", "1,0,0,0"
        )
        assert code == EXIT_ERROR
        assert "ParseError" in err

    def test_c5sq_needs_a_larger_field(self, capsys, gf4_plane):
        code, _, err = run_cli(capsys, "witness", gf4_plane, "--kind", "c5sq")
        assert code == EXIT_ERROR
        assert "WrongField" in err

    def test_wrong_shape_reported(self, capsys, gf4_plane):
        code, _, err = run_cli(capsys, "witness", gf4_plane, "--kind", "k4e")
        assert code == EXIT_ERROR
        assert "WrongShape" in err

    def test_c5sq_round_trip(self, capsys, gf8_hyperplane, tmp_path):
        cert = tmp_path / "c5sq.cert"
        code, out, _ = run_cli(
            capsys,
            "witness",
            gf8_hyperplane,
            "--kind",
            "c5sq",
            "--alpha",
            "1,0,0",
            "--out",
            str(cert),
        )
        assert code == EXIT_OK
        assert "target: c5sq" in out
        code, out, _ = run_cli(
            capsys, "analyze", gf8_hyperplane, "--check-cert", str(cert)
        )
        assert code == EXIT_OK
        assert "VALID" in out

    def test_c5sq_seed_is_deterministic(self, capsys, gf8_hyperplane):
        first = run_cli(capsys, "witness", gf8_hyperplane, "--kind", "c5sq", "--seed", 11)
        second = run_cli(capsys, "witness", gf8_hyperplane, "--kind", "c5sq", "--seed", 11)
        assert first == second
        assert first[0] == EXIT_OK

    def test_unwritable_out_is_one_error_line(self, capsys, gf4_u24, tmp_path):
        cert = tmp_path / "missing" / "u24.cert"
        code, out, err = run_cli(capsys, "witness", gf4_u24, "--kind", "u24", "--out", cert)
        assert code == EXIT_ERROR and out == ""
        assert err.startswith(f"error: PreconditionViolated: cannot write {cert}")
        assert err.count("\n") == 1

    def test_json_steps(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(
            capsys, "witness", gf8_hyperplane, "--kind", "c5sq", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert set(data) == {"instance", "kind", "target", "steps", "certificate"}
        assert data["kind"] == "c5sq" and data["target"] == "c5sq"
        assert len(data["steps"]) == 3
        assert all(set(step) == {"delete", "contract"} for step in data["steps"])


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--q", 3, "--n", 2, "--theorem", "1.1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == (
            "instance,i,ii,iii,agreement,unknown,method_i,method_ii,method_iii"
        )
        assert lines[-1] == "# total=6 disagreements=0 unknown_verdicts=0"
        assert len(lines) == 1 + 6 + 1

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--q", 3, "--n", 2, "--theorem", "1.1", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["q"] == 3 and data["n"] == 2
        assert data["total"] == 6
        assert data["disagreements"] == 0
        assert data["unknown_verdicts"] == 0
        assert len(data["reports"]) == 6
        for report in data["reports"]:
            assert {"instance", "i", "ii", "iii", "agreement", "unknown"} <= set(report)

    def test_parallel_matches_serial(self, capsys):
        serial = run_cli(capsys, "sweep", "--q", 3, "--n", 2, "--theorem", "1.1")
        parallel = run_cli(
            capsys, "sweep", "--q", 3, "--n", 2, "--theorem", "1.1", "--jobs", 2
        )
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_job_count_below_one_is_one_error_line(self, capsys, jobs):
        code, out, err = run_cli(capsys, "sweep", "--q", 3, "--n", 2, "--theorem", "1.4", "--jobs", jobs)
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("error: PreconditionViolated: job count must be at least 1")
        assert err.count("\n") == 1

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--q", 3, "--n", 2, "--theorem", "1.1", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert "# total=6 disagreements=0" in out_path.read_text(encoding="utf-8")

    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--q", 2, "--n", 2, "--theorem", "1.4", "--out", out_path
        )
        assert code == EXIT_ERROR and out == ""
        assert err.startswith(f"error: PreconditionViolated: cannot write {out_path}")
        assert err.count("\n") == 1

    def test_non_prime_power_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--q", 6, "--n", 2, "--theorem", "1.1")
        assert code == EXIT_ERROR
        assert "NotPrimePower" in err

    def test_tiny_budget_reports_unknown(self, capsys):
        # --budget bounds the minor and packing searches, not the enumeration
        code, out, _ = run_cli(
            capsys, "sweep", "--q", 3, "--n", 4, "--theorem", "1.4", "--budget", 81, "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["total"] == len(data["reports"]) == 212
        assert data["disagreements"] == 0
        unknown_iii = [r for r in data["reports"] if "iii" in r["unknown"]]
        assert unknown_iii
        for report in unknown_iii:
            assert report["methods"]["iii"].startswith("unknown: minor search out of budget")

    def test_budget_reaches_the_library_unchanged(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--q", 3, "--n", 3, "--theorem", "1.4", "--budget", 6561, "--json"
        )
        assert code == EXIT_OK
        swept = clutterforge.verify.sweep_theorem(3, 3, "1.4", budget=6561)
        assert json.loads(out)["reports"] == [json.loads(json.dumps(r.to_dict())) for r in swept]


class TestUsageErrors:
    """A usage error is one `error: ParseError` line and exit 1, like any input error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "x.txt", "--budget", "abc"], "argument --budget: invalid int value: 'abc'"),
            (["sweep", "--q", "x", "--n", "2", "--theorem", "1.1"], "argument --q: invalid int value: 'x'"),
            (["analyze"], "the following arguments are required: input"),
            (["analyze", "x.txt", "--budget", "-1"], "argument --budget: must be at least 0, got -1"),
            (["analyze", "x.txt", "--max-ground", "-3"], "argument --max-ground: must be at least 0, got -3"),
            (["sweep", "--q", "3", "--n", "2", "--theorem", "1.4", "--budget", "-1"],
             "argument --budget: must be at least 0, got -1"),
            (["sweep", "--q", "3", "--n", "2", "--theorem", "1.4", "--max-ground", "-3"],
             "argument --max-ground: must be at least 0, got -3"),
            ([], "the following arguments are required: command"),
        ],
        ids=["budget-not-int", "q-not-int", "missing-input", "analyze-negative-budget",
             "analyze-negative-max-ground", "sweep-negative-budget", "sweep-negative-max-ground",
             "missing-command"],
    )
    def test_one_error_line_and_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_ERROR, "", f"error: ParseError: {message}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--help"])
        assert info.value.code == 0
        assert "exhaustive-search budget" in capsys.readouterr().out


class TestLocalize:
    def test_profile(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(capsys, "localize", gf8_hyperplane, "--alpha", "1,0,0")
        assert code == EXIT_OK
        assert "alpha: 1,0,0 (functional value 1)" in out
        assert "size-1 members:" in out
        assert "size-2 components: 3" in out

    def test_profile_json(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(
            capsys, "localize", gf8_hyperplane, "--alpha", "1,0,0", "--json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alpha"] == [1, 0, 0]
        assert data["sigma"] == 1
        assert data["profile"] is not None

    def test_raw_fallback_for_odd_fields(self, capsys, gf3_overlapping):
        code, out, _ = run_cli(capsys, "localize", gf3_overlapping, "--alpha", "1,0,0")
        assert code == EXIT_OK
        assert "no closed-form census" in out

    def test_point_of_the_space_gives_the_empty_member(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(capsys, "localize", gf8_hyperplane, "--alpha", "0,1,1")
        assert code == EXIT_OK
        assert "1 members (size 0: 1)" in out

    def test_bad_alpha(self, capsys, gf8_hyperplane):
        code, _, err = run_cli(capsys, "localize", gf8_hyperplane, "--alpha", "1,0")
        assert code == EXIT_ERROR
        assert "error:" in err


class TestMatroid:
    def test_text_report(self, capsys, gf8_hyperplane):
        code, out, _ = run_cli(capsys, "matroid", gf8_hyperplane)
        assert code == EXIT_OK
        assert "elements: 3, rank: 1" in out
        assert "circuits: {0,1} {0,2} {1,2}" in out
        assert "named matches: A3" in out

    def test_json_report(self, capsys, gf4_u24):
        code, out, _ = run_cli(capsys, "matroid", gf4_u24, "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["size"] == 4
        assert data["rank"] == 2
        assert data["named_matches"] == ["U24"]
        assert len(data["circuits"]) == 4


# Exit code and stdout of these runs, byte for byte. A file under cli_golden/
# changes only with an intended change of the CLI's output.
GOLDEN = Path(__file__).parent / "cli_golden"
_ANALYZE_CODES = {
    "gf4_plane": EXIT_OK,
    "gf3_overlapping": EXIT_OK,
    "gf8_hyperplane": EXIT_UNKNOWN,
    "gf4_u24": EXIT_UNKNOWN,
}
PINNED = [
    *((f"analyze-{fx}", fx, ("analyze",), code) for fx, code in _ANALYZE_CODES.items()),
    *((f"analyze-{fx}-json", fx, ("analyze", "--json"), code) for fx, code in _ANALYZE_CODES.items()),
    *((f"matroid-{fx}", fx, ("matroid",), EXIT_OK) for fx in _ANALYZE_CODES),
    ("localize-gf8_hyperplane", "gf8_hyperplane", ("localize", "--alpha", "1,0,0"), EXIT_OK),
    ("localize-gf8_hyperplane-json", "gf8_hyperplane", ("localize", "--alpha", "1,0,0", "--json"), EXIT_OK),
    ("witness-gf4_u24-u24", "gf4_u24", ("witness", "--kind", "u24"), EXIT_OK),
    ("witness-gf4_u24-u24-json", "gf4_u24", ("witness", "--kind", "u24", "--json"), EXIT_OK),
    ("witness-gf4_k4e-k4e", "gf4_k4e", ("witness", "--kind", "k4e"), EXIT_OK),
    ("witness-gf4_k4e-k4e-json", "gf4_k4e", ("witness", "--kind", "k4e", "--json"), EXIT_OK),
]


@pytest.mark.parametrize("case, fixture, argv, expected_code", PINNED, ids=[p[0] for p in PINNED])
def test_output_is_pinned(capsys, request, case, fixture, argv, expected_code):
    path = request.getfixturevalue(fixture)
    code, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
