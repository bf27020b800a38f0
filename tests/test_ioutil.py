"""The one atomic writer of every output file, ioutil.atomic_write_text."""

import os

import pytest

from biotcgp import ioutil
from biotcgp.ioutil import atomic_write_text
from biotcgp.verification import StudyResult


def test_writes_str_as_utf8_and_bytes_as_given_without_newline_translation(tmp_path):
    path = str(tmp_path / "sub" / "out.txt")
    atomic_write_text(path, "a\nb\r\ncé\n")
    with open(path, "rb") as handle:
        assert handle.read() == b"a\nb\r\nc\xc3\xa9\n"
    raw = bytes(range(256)) + b"\n\r\n"
    atomic_write_text(path, raw)
    with open(path, "rb") as handle:
        assert handle.read() == raw
    assert os.listdir(tmp_path / "sub") == ["out.txt"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = str(tmp_path / "out.txt")
    with pytest.raises(TypeError):
        atomic_write_text(path, 12)             # neither str nor bytes
    assert os.listdir(tmp_path) == []

    atomic_write_text(path, "old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(ioutil.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(path, b"new\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    with open(path, "rb") as handle:
        assert handle.read() == b"old\n"


def test_study_csv_bytes_are_pinned(tmp_path):
    # the bytes that the text-mode writer wrote for this study, kept when the
    # writer moved to binary mode: %.17g cells, "" and "exact" EOCs, -0
    result = StudyResult()
    result.add_level(0.5, 0.5, 0.1, {"err": 0.1, "u_L2": 1e-3})
    result.add_level(0.25, 0.25, 0.1, {"err": 0.025, "u_L2": 1.0 / 3.0 * 1e-3})
    result.add_level(0.125, 0.125, 0.1, {"err": 0.025, "u_L2": -0.0})
    path = str(tmp_path / "study.csv")
    result.to_csv(path)
    with open(path, "rb") as handle:
        assert handle.read() == (
            b"level,h,tau,err,u_L2,eoc_err,eoc_u_L2\n"
            b"0,0.5,0.10000000000000001,0.10000000000000001,0.001,,\n"
            b"1,0.25,0.10000000000000001,0.025000000000000001,0.00033333333333333332,2,"
            b"1.5849625007211563\n"
            b"2,0.125,0.10000000000000001,0.025000000000000001,-0,0,exact\n")
