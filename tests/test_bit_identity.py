"""``tools/bit_identity.py diff``, on which every bit-identical comparison of
two checkouts rests."""

import importlib.util
import json
import math

import pytest

from tests.conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bit_identity", REPO_ROOT / "tools" / "bit_identity.py")
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)


def _record():
    result = {"max_error": 1.25e-7, "dim": 14, "passed": True}
    return {"checkout": "somewhere",
            "tasks": {"dicke:small:0": {k: bit_identity._exact(v) for k, v in result.items()}},
            "reports": {"dicke_spectrum.cfg:csv": {"exit_code": 0, "sha256": "ab" * 32}}}


def _diff(tmp_path, before, after, capsys):
    a, b = tmp_path / "before.json", tmp_path / "after.json"
    a.write_text(json.dumps(before), encoding="utf-8")
    b.write_text(json.dumps(after), encoding="utf-8")
    code = bit_identity.main(["diff", str(a), str(b)])
    return code, capsys.readouterr().out


def test_equal_records_are_identical(tmp_path, capsys):
    code, out = _diff(tmp_path, _record(), _record(), capsys)
    assert code == 0
    assert out.splitlines()[-1] == "identical"


def test_one_ulp_in_a_task_differs(tmp_path, capsys):
    after = _record()
    task = after["tasks"]["dicke:small:0"]
    task["max_error"] = math.nextafter(1.25e-7, 1.0).hex()
    assert task["max_error"] != _record()["tasks"]["dicke:small:0"]["max_error"]
    code, out = _diff(tmp_path, _record(), after, capsys)
    assert code == 1
    assert "tasks dicke:small:0" in out
    assert out.splitlines()[-1] == "1 differ"


def test_a_changed_report_hash_differs(tmp_path, capsys):
    after = _record()
    after["reports"]["dicke_spectrum.cfg:csv"]["sha256"] = "cd" * 32
    code, out = _diff(tmp_path, _record(), after, capsys)
    assert code == 1
    assert "reports dicke_spectrum.cfg:csv" in out


@pytest.mark.parametrize("section", ["tasks", "reports"])
def test_an_entry_missing_on_one_side_differs(tmp_path, capsys, section):
    after = _record()
    after[section].clear()
    code, _ = _diff(tmp_path, _record(), after, capsys)
    assert code == 1
