"""Smoke tests of the helper scripts under scripts/, run as subprocesses."""

import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

from tritsp.instance import gen_planted, load_instance, planted_corpus, save_instance

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name, *args, check=True):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        check=check,
    )


class TestReportDigest:
    def test_one_line_of_five_fields_per_file(self, data_dir):
        out = run_script("report_digest.py", data_dir, "--jobs", "1").stdout
        lines = out.splitlines()
        # the *.json files by name, then sq4.tsp
        names = ["DEFECT7", "DEFECT8", "INST4", "SQ4", "SQ4"]
        assert [line.split()[0] for line in lines] == names
        for line in lines:
            name, *digests = line.split()
            assert len(digests) == 4
            assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
        # the JSON and TSPLIB squares are the same instance
        assert lines[3] == lines[4]
        # the last field digests the loaded instance's native JSON
        saved = save_instance(load_instance(Path(data_dir) / "inst4.json"))
        assert lines[2].split()[-1] == hashlib.sha256(saved).hexdigest()

    def test_forced_pool_equals_serial(self, data_dir, tmp_path):
        # the planted instance's end sets give both shards layouts, so each
        # worker sends its own winner back through the pool
        planted = tmp_path / "planted.json"
        planted.write_bytes(save_instance(gen_planted(11, 5, 7)))
        inputs = (data_dir, str(planted))
        serial = run_script("report_digest.py", *inputs, "--jobs", "1").stdout
        pooled = run_script("report_digest.py", *inputs, "--jobs", "2", "--force-pool")
        assert len(serial.splitlines()) == 6
        assert pooled.stdout == serial


def test_make_corpus_writes_the_planted_corpus(tmp_path):
    res = run_script("make_corpus.py", "--out", str(tmp_path), "--mix", "3:2")
    assert res.stderr == f"wrote 2 instances to {tmp_path}\n"
    expect = planted_corpus({3: 2}, range(6, 13), 1000)
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == sorted(f"{inst.name}.json" for inst in expect)
    assert sorted(map(load_instance, files), key=lambda i: i.name) == sorted(
        expect, key=lambda i: i.name
    )


def test_digest_inputs_writes_the_same_files_twice(data_dir, tmp_path):
    # tests/data, 12 planted instances, two corpus seeds of 260 instances
    # and two metric seeds of 4
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        res = run_script("digest_inputs.py", str(out))
        count = len(list(Path(data_dir).iterdir())) + 12 + 2 * 260 + 2 * 4
        assert res.stderr == f"wrote {count} files to {out}\n"
        runs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(runs[0]) == count
    assert runs[0] == runs[1]
    assert runs[0]["inst4.json"] == (Path(data_dir) / "inst4.json").read_bytes()


class TestCompareDigests:
    def test_a_tree_matches_itself(self, data_dir):
        res = run_script("compare_digests.py", str(SRC), str(SRC), data_dir)
        assert res.stdout == ""
        assert res.stderr == "0 of 10 lines differ (5 inputs, 2 modes)\n"

    def test_an_output_change_is_named(self, data_dir, tmp_path):
        # a copy whose metric regime reports under another name: only the
        # square, stored as JSON and as TSPLIB, solves in that regime
        shutil.copytree(SRC / "tritsp", tmp_path / "tritsp",
                        ignore=shutil.ignore_patterns("__pycache__"))
        solver = tmp_path / "tritsp" / "solver.py"
        text = solver.read_text()
        assert text.count('"metric")') == 1
        solver.write_text(text.replace('"metric")', '"metric2")'))
        res = run_script("compare_digests.py", str(SRC), str(tmp_path), data_dir, check=False)
        assert res.returncode == 1
        data = Path(data_dir)
        assert res.stdout.splitlines() == [
            f"{mode}\t{data / name}"
            for mode in ("--jobs 1", "--jobs 2 --force-pool")
            for name in ("sq4.json", "sq4.tsp")
        ]
        assert res.stderr == "4 of 10 lines differ (5 inputs, 2 modes)\n"
