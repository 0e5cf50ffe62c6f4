"""The command line's outputs on the golden configs match the committed
manifest, artefact by artefact (see ``tests/golden.py``)."""
import json
import time

import golden


def test_golden_outputs_match_the_manifest(tmp_path):
    start = time.perf_counter()
    artefacts = golden.run_cases(tmp_path)
    elapsed = time.perf_counter() - start
    manifest = json.loads(golden.MANIFEST.read_text())
    assert golden.mismatches(artefacts, manifest) == []
    assert elapsed < 2.0


def test_a_mismatch_names_the_artefact_and_its_first_differing_line():
    csv = b"k,residual\r\n0,1.5\r\n1,0.25\r\n"
    json_text = b'{\n "a": 1,\n "b": 2\n}'
    manifest = {"case/out/t.csv": golden.manifest_entry("t.csv", csv),
                "case/out/s.json": golden.manifest_entry("s.json", json_text),
                "case/run.exit": golden.manifest_entry("run.exit", b"0"),
                "case/run.stdout": golden.manifest_entry("run.stdout", b"")}
    got = {"case/out/t.csv": b"k,residual\r\n0,1.5\r\n1,0.26\r\n",
           "case/out/s.json": b'{\n "b": 2,\n "a": 1\n}',
           "case/run.exit": b"2",
           "case/run.stderr": b""}
    assert golden.mismatches(got, manifest) == [
        "case/run.stdout: missing",
        "case/run.stderr: not in the manifest",
        "case/out/s.json: differs from line 2 (4 lines, manifest 4):  \"b\": 2,",
        "case/out/t.csv: differs from line 3 (3 lines, manifest 3): 1,0.26",
        "case/run.exit: differs",
    ]
