"""Smoke tests of the helper scripts under scripts/, run as subprocesses."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from tritsp.instance import gen_planted, load_instance, planted_corpus, save_instance

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        check=True,
    )


class TestReportDigest:
    def test_one_line_of_five_fields_per_file(self, data_dir):
        out = run_script("report_digest.py", data_dir, "--jobs", "1").stdout
        lines = out.splitlines()
        # inst4.json and sq4.json, then sq4.tsp
        assert [line.split()[0] for line in lines] == ["INST4", "SQ4", "SQ4"]
        for line in lines:
            name, *digests = line.split()
            assert len(digests) == 4
            assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
        # the JSON and TSPLIB squares are the same instance
        assert lines[1] == lines[2]
        # the last field digests the loaded instance's native JSON
        saved = save_instance(load_instance(Path(data_dir) / "inst4.json"))
        assert lines[0].split()[-1] == hashlib.sha256(saved).hexdigest()

    def test_forced_pool_equals_serial(self, data_dir, tmp_path):
        # the planted instance's end sets give both shards layouts, so each
        # worker sends its own winner back through the pool
        planted = tmp_path / "planted.json"
        planted.write_bytes(save_instance(gen_planted(11, 5, 7)))
        inputs = (data_dir, str(planted))
        serial = run_script("report_digest.py", *inputs, "--jobs", "1").stdout
        pooled = run_script("report_digest.py", *inputs, "--jobs", "2", "--force-pool")
        assert len(serial.splitlines()) == 4
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
