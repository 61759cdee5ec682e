import json
import os
import subprocess
import sys
from pathlib import Path

from cuspsym.cli import main

from conftest import REFERENCE_FAILING_12, dihedral_equal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine_records(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--cycle", "2,2,2,2")
    assert code == 0 and "condition ii" in out
    code, out, _ = run(capsys, "validate", "--cycle", "3,10,3,4")
    assert code == 0 and "valid cusp" in out


def test_dual_reference_row(capsys):
    code, out, _ = run(capsys, "dual", "--cycle", "3,10,3,4", "--format", "machine")
    assert code == 0
    recs = machine_records(out)
    assert dihedral_equal(recs[0]["dual"], REFERENCE_FAILING_12[0][1])


def test_dual_invalid_exit1(capsys):
    code, _, err = run(capsys, "dual", "--cycle", "2,2,2,2")
    assert code == 1 and "not a cusp cycle" in err
    code, _, err = run(capsys, "dual", "--cycle", "2,x")
    assert code == 1 and "malformed" in err


def test_symmetry_none(capsys):
    code, out, _ = run(capsys, "symmetry", "--cycle", "1,2,1,2,2,1,2,1")
    assert code == 0 and "no symmetric structure" in out


def test_pi1(capsys):
    code, out, _ = run(capsys, "pi1", "--blowup-rays", "1,1;-1,1;-1,-1;1,-1")
    assert code == 0 and "Z/2" in out
    code, out, _ = run(capsys, "pi1", "--blowup-rays", "2,1;-1,1;-1,-1;0,-1",
                       "--format", "machine")
    recs = machine_records(out)
    assert recs[0]["group"] == "0"


def test_involution_machine(capsys):
    code, out, _ = run(capsys, "involution", "--cycle", "2,4,2,4", "--axis", "2",
                       "--format", "machine")
    assert code == 0
    rec = [r for r in machine_records(out) if r["record"] == "involution"][0]
    assert rec["A"] == [[-7, -24], [12, 41]]
    assert rec["B"] == [[1, 4], [0, -1]]
    assert rec["t_candidates"] == [[1, 0], [1, 1]]


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", "--cycle", "2,4,2,4", "--axis", "2",
                       "--format", "machine")
    rec = [r for r in machine_records(out) if r["record"] == "quotient"][0]
    assert rec["chain"] == [3, 2, 3]
    assert rec["class_group"] == "Z^3 x Z/2 x Z/2"


def test_smoothable_reference_failure(capsys, tmp_path):
    code, out, _ = run(capsys, "smoothable", "--cycle", "3,10,3,4",
                       "--cache-dir", str(tmp_path), "--format", "machine")
    assert code == 0
    verdicts = [r for r in machine_records(out) if r["record"] == "verdict"]
    assert len(verdicts) == 1
    assert verdicts[0]["verdict"].startswith("no equivariant pair")


def test_smoothable_holds(capsys, tmp_path):
    code, out, _ = run(capsys, "smoothable", "--cycle", "14,2,2,2",
                       "--cache-dir", str(tmp_path), "--format", "machine")
    verdicts = [r for r in machine_records(out) if r["record"] == "verdict"]
    assert verdicts[0]["verdict"].startswith("equivariant Looijenga pair exists")
    assert verdicts[0]["witness"]["corner_steps"]


def test_smoothable_not_symmetric(capsys, tmp_path):
    code, out, _ = run(capsys, "smoothable", "--cycle", "3,5,3,4",
                       "--cache-dir", str(tmp_path))
    assert code == 0 and "not symmetric" in out


def test_smoothable_multiplicity_two(capsys, tmp_path):
    code, out, _ = run(capsys, "smoothable", "--cycle", "2,4",
                       "--cache-dir", str(tmp_path))
    assert code == 0 and "multiplicity-2" in out


def test_enumerate_toric_minimal_row(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate-toric", "--length", "12",
                       "--cache-dir", str(tmp_path), "--format", "machine")
    recs = [r for r in machine_records(out) if r["record"] == "toric"]
    assert any(dihedral_equal(r["cycle"], (1, 2, 2, 2, 1, 2, 1, 2, 2, 2, 1, 6))
               for r in recs)


def test_cache_warm_identical(capsys, tmp_path):
    def strip(text):
        recs = machine_records(text)
        out = []
        for r in recs:
            r.pop("timing_s", None)
            r.pop("warm", None)
            out.append(r)
        return out

    code1, out1, _ = run(capsys, "enumerate-toric", "--length", "10",
                         "--cache-dir", str(tmp_path), "--format", "machine")
    code2, out2, _ = run(capsys, "enumerate-toric", "--length", "10",
                         "--cache-dir", str(tmp_path), "--format", "machine")
    assert code1 == code2 == 0
    recs2 = machine_records(out2)
    assert any(r.get("warm") for r in recs2 if r["record"] == "cache")
    assert strip(out1) == strip(out2)


def test_scan_small_empty(capsys, tmp_path):
    code, out, _ = run(capsys, "scan", "--length", "8", "--max-entry", "8",
                       "--cache-dir", str(tmp_path), "--format", "machine")
    assert code == 0
    head = machine_records(out)[0]
    assert head["failing"] == 0


def test_scan_budget_exceeded(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--length", "8", "--max-entry", "8",
                       "--budget", "10", "--cache-dir", str(tmp_path))
    assert code == 2 and "budget" in err.lower()


def test_scan_past_toric_bound_budget_exit2(capsys, tmp_path):
    # the budget is checked before the toric enumeration
    code, _, err = run(capsys, "scan", "--length", "32", "--budget", "10",
                       "--cache-dir", str(tmp_path))
    assert code == 2 and "over the budget of 10" in err


def test_scan_past_toric_bound_exit2(capsys, tmp_path):
    # the bound is checked before the dual of the huge cusp is built
    huge = "4,1000000000000,4,1000000000000"
    for argv in (["scan", "--length", "32"], ["smoothable", "--cycle", huge]):
        code, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 2 and "past the bound 30" in err, argv


def test_import_without_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import cuspsym, cuspsym.cli, sys; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_scan12_rows(capsys, tmp_path):
    from conftest import EXTRA_FAILING_CUSP

    code, out, _ = run(capsys, "scan", "--length", "12",
                       "--cache-dir", str(tmp_path), "--format", "machine")
    assert code == 0
    recs = machine_records(out)
    head = [r for r in recs if r["record"] == "scan"][0]
    rows = [r for r in recs if r["record"] == "failing"]
    assert head["failing"] == len(rows) == 13
    cusps = {tuple(r["cusp"]) for r in rows}
    for cusp, _ in REFERENCE_FAILING_12:
        assert any(dihedral_equal(cusp, got) for got in cusps), cusp
    assert any(dihedral_equal(EXTRA_FAILING_CUSP, got) for got in cusps)
    # emitted rows parse back to equal canonical values
    from cuspsym import CycleWord, canonicalize

    for r in rows:
        for key in ("cusp", "dual"):
            w = CycleWord(tuple(r[key]))
            assert canonicalize(w) == w


def test_machine_roundtrip_and_determinism(capsys, tmp_path):
    code1, out1, _ = run(capsys, "dual", "--cycle", "3,8,3,6", "--format", "machine")
    code2, out2, _ = run(capsys, "dual", "--cycle", "3,8,3,6", "--format", "machine")
    r1, r2 = machine_records(out1), machine_records(out2)
    for recs in (r1, r2):
        assert recs[-1]["record"] == "meta"
        recs[-1].pop("timing_s")
    assert r1 == r2
