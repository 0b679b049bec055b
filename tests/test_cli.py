import csv
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tritsp", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAudit:
    def test_inst4(self, data_dir):
        res = run_cli("audit", f"{data_dir}/inst4.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["k"] == 1
        assert payload["k_T"] == 3
        assert payload["bad"] == [0, 1, 2]
        assert payload["good"] == [3]
        assert payload["violating"] == [[0, 1, 2]]

    def test_missing_file(self):
        res = run_cli("audit", "/no/such/file.json")
        assert res.returncode == 1
        assert res.stderr.strip()
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "header, coord, line",
        [
            ("TYPE:", "1 0", 2),  # an empty TYPE
            ("TYPE: TSP", "nan 0", 7),
            ("TYPE: TSP", "inf 0", 7),
            ("TYPE: TSP", "1e200 1e200", 7),  # the squared distance overflows
        ],
    )
    def test_malformed_tsplib_is_a_parse_error(self, tmp_path, header, coord, line):
        text = "\n".join(
            ["NAME: x", header, "DIMENSION: 2", "EDGE_WEIGHT_TYPE: EUC_2D",
             "NODE_COORD_SECTION", "1 0 0", f"2 {coord}", "EOF"]
        )
        path = tmp_path / "bad.tsp"
        path.write_text(text)
        res = run_cli("audit", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"tritsp: line {line}: ")
        assert "Traceback" not in res.stderr


class TestSolve:
    def test_inst4_payload(self, data_dir):
        res = run_cli("solve", f"{data_dir}/inst4.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["cost"] == 13
        assert payload["tour"] == [0, 2, 1, 3]
        assert payload["layouts"] == 2
        assert payload["certified"] == 2
        assert "ms" in res.stderr  # timing goes to stderr, not stdout

    def test_stdout_is_byte_stable(self, data_dir):
        a = run_cli("solve", f"{data_dir}/inst4.json")
        b = run_cli("solve", f"{data_dir}/inst4.json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_sq4(self, data_dir):
        res = run_cli("solve", f"{data_dir}/sq4.json")
        payload = json.loads(res.stdout)
        assert payload["cost"] == 8
        assert payload["k"] == 0

    def test_max_bad_refusal_exit_code(self, data_dir):
        res = run_cli("solve", f"{data_dir}/inst4.json", "--max-bad", "2")
        assert res.returncode == 2
        assert res.stdout == ""

    def test_all_bad_stdout_is_frozen(self, tmp_path):
        # every vertex is bad, and four optimal cycles tie at cost 9: the
        # tour is the smallest optimal order from 0, and these bytes are
        # those recorded when the regime still enumerated its 5! rings
        rows = [
            [0, 2, 2, 5, 2, 1],
            [2, 0, 2, 2, 5, 2],
            [2, 2, 0, 2, 1, 1],
            [5, 2, 2, 0, 2, 1],
            [2, 5, 1, 2, 0, 2],
            [1, 2, 1, 1, 2, 0],
        ]
        path = tmp_path / "allbad6.json"
        path.write_text(json.dumps({"name": "allbad6", "n": 6, "cost": rows}))
        res = run_cli("solve", str(path))
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            '{"name":"allbad6","n":6,"k":8,"k_T":6,"cost":9,'
            '"tour":[0,1,2,4,3,5],"regime":"all-bad","layouts":120,'
            '"certified":120}\n'
        )
        exact = json.loads(run_cli("exact", str(path)).stdout)
        assert exact["tour"] == [0, 1, 2, 4, 3, 5] and exact["cost"] == 9

    def test_all_bad_refusal_exit_code(self, tmp_path):
        # all-bad inputs are refused past the exact search's n = 18 only;
        # every vertex of this ring of 3s among 1s is bad
        n = 19
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 3
        path = tmp_path / "ring19.json"
        path.write_text(json.dumps({"name": "ring19", "n": n, "cost": rows}))
        res = run_cli("solve", str(path))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "up to n=18" in res.stderr

    @pytest.mark.parametrize(
        "flag, value, low",
        [("--jobs", "0", 1), ("--jobs", "-5", 1), ("--max-bad", "-1", 0)],
    )
    def test_out_of_range_arguments_are_usage_errors(self, data_dir, flag, value, low):
        # not a serial run nor an oversized instance (exit 2): a usage error
        res = run_cli("solve", f"{data_dir}/inst4.json", flag, value)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == (
            f"tritsp solve: error: argument {flag}: must be at least {low}, got {value}\n"
        )

    def test_smallest_arguments_run(self, data_dir):
        # --jobs 1 and --max-bad 0 are in range: the same bytes as the
        # defaults, and a refusal for 3 bad vertices over a limit of 0
        plain = run_cli("solve", f"{data_dir}/inst4.json")
        one = run_cli("solve", f"{data_dir}/inst4.json", "--jobs", "1")
        assert one.returncode == plain.returncode == 0
        assert one.stdout == plain.stdout
        zero = run_cli("solve", f"{data_dir}/inst4.json", "--max-bad", "0")
        assert zero.returncode == 2
        assert "3 bad vertices exceeds the limit of 0" in zero.stderr

    def test_cert_flag(self, data_dir):
        # every solve checks its matchings' certificates; the flag is gone
        res = run_cli("solve", f"{data_dir}/inst4.json", "--cert")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "unrecognized arguments: --cert" in res.stderr


class TestExact:
    def test_inst4(self, data_dir):
        res = run_cli("exact", f"{data_dir}/inst4.json")
        payload = json.loads(res.stdout)
        assert payload["cost"] == 13
        assert payload["tour"] == [0, 2, 1, 3]

    def test_tsplib_input(self, data_dir):
        res = run_cli("exact", f"{data_dir}/sq4.tsp")
        assert json.loads(res.stdout)["cost"] == 8

    def test_cost_past_int64(self, tmp_path):
        # one cost of 2**63 does not fit int64: the DP runs on exact ints
        n = 5
        rows = [[0 if i == j else 1 + (i * j) % 4 for j in range(n)] for i in range(n)]
        rows[1][3] = rows[3][1] = 2**63
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "n": n, "cost": rows}))
        res = run_cli("exact", str(path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        best = min(
            sum(rows[a][b] for a, b in zip(t, t[1:] + t[:1]))
            for t in ((0, *p) for p in itertools.permutations(range(1, n)))
        )
        assert payload["cost"] == best
        assert sorted(payload["tour"]) == list(range(n))

    def test_size_refusal(self, tmp_path):
        res = run_cli("gen", "--metric", "--n", "20", "--seed", "3",
                      "-o", str(tmp_path / "m20.json"))
        assert res.returncode == 0
        res = run_cli("exact", str(tmp_path / "m20.json"))
        assert res.returncode == 2


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--planted", "--n", "9", "--bad", "3", "--seed", "11",
                "-o", str(a))
        run_cli("gen", "--planted", "--n", "9", "--bad", "3", "--seed", "11",
                "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_planted_requires_bad(self, tmp_path):
        res = run_cli("gen", "--planted", "--n", "9", "--seed", "1",
                      "-o", str(tmp_path / "x.json"))
        assert res.returncode == 1

    def test_metric_rejects_bad_flag(self, tmp_path):
        res = run_cli("gen", "--metric", "--n", "9", "--bad", "3", "--seed", "1",
                      "-o", str(tmp_path / "x.json"))
        assert res.returncode == 1

    def test_gen_audit_pipeline(self, tmp_path):
        out = tmp_path / "p.json"
        res = run_cli("gen", "--planted", "--n", "8", "--bad", "3", "--seed", "4",
                      "-o", str(out))
        assert res.returncode == 0
        audit = run_cli("audit", str(out))
        payload = json.loads(audit.stdout)
        assert payload["k_T"] == 3


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for seed in (1, 2):
        run_cli("gen", "--planted", "--n", "8", "--bad", "3",
                "--seed", str(seed), "-o", str(d / f"p8-s{seed}.json"))
    run_cli("gen", "--metric", "--n", "6", "--seed", "5",
            "-o", str(d / "m6-s5.json"))
    return d


class TestBench:
    @pytest.mark.parametrize(
        "flag, value", [("--jobs", "0"), ("--max-bad", "-1"), ("--top", "-1")]
    )
    def test_out_of_range_arguments_are_usage_errors(self, corpus_dir, tmp_path, flag, value):
        out = tmp_path / "never.csv"
        res = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out), flag, value)
        assert res.returncode == 1
        assert res.stdout == "" and not out.exists()
        assert f"tritsp bench: error: argument {flag}: must be at least" in res.stderr

    def test_csv_shape(self, corpus_dir, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "instance,n,k,k_T,alg_cost,opt_cost,ratio_num,ratio_den,"
            "layouts,certified,time_ms,seed"
        )
        assert len(lines) == 4
        # seeds recovered from the -s<seed> filename suffix
        assert lines[1].split(",")[-1] == "5"

    def test_rows_reproducible_apart_from_timing(self, corpus_dir, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
            rows = [line.split(",") for line in out.read_text().splitlines()]
            time_col = rows[0].index("time_ms")
            outs.append([r[:time_col] + r[time_col + 1:] for r in rows])
        assert outs[0] == outs[1]

    def test_summary_on_stdout(self, corpus_dir, tmp_path):
        res = run_cli("bench", "--dir", str(corpus_dir), "--out",
                      str(tmp_path / "s.csv"))
        assert "max_ratio" in res.stdout
        assert "instances=3" in res.stdout

    def test_output_without_top_is_the_summary_alone(self, corpus_dir, tmp_path):
        out = tmp_path / "p.csv"
        plain = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
        zero = run_cli("bench", "--dir", str(corpus_dir), "--out",
                       str(tmp_path / "z.csv"), "--top", "0")
        assert plain.returncode == zero.returncode == 0
        rows = list(csv.DictReader(out.open()))
        groups = {(r["n"], r["k"]) for r in rows}
        lines = plain.stdout.splitlines()
        # header, one line per (n, k), the instance count; no worst list
        assert lines[0].split() == ["n", "k", "count", "mean_ratio", "max_ratio"]
        assert len(lines) == len(groups) + 2
        assert lines[-1] == "instances=3"
        # the time figures go to stderr, so stdout repeats exactly
        assert plain.stderr.startswith("time_ms p50=")
        assert zero.stdout == plain.stdout

    def test_top_lists_worst_ratios(self, corpus_dir, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out),
                      "--top", "2")
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        rows.sort(key=lambda r: Fraction(int(r["alg_cost"]), int(r["opt_cost"])),
                  reverse=True)
        lines = res.stdout.splitlines()
        at = lines.index("worst 2 ratios:")
        assert lines[at - 1] == ""
        assert lines[at - 2] == "instances=3"
        listed = lines[at + 1:]
        assert len(listed) == 2
        for line, row in zip(listed, rows):
            assert line.startswith(
                f"  {row['instance']}: {row['alg_cost']}/{row['opt_cost']} = "
            )
            assert line.endswith(f" (n={row['n']}, k={row['k']})")
