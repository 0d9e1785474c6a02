"""The file boundary: every read or write failure is a UserInputError naming the path."""

import os
import re

import pytest

import dvlae.ioutil as io_mod
from dvlae import UserInputError
from dvlae.ioutil import atomic_write_text, check_output_dir, read_id_list, read_input_text


class TestRead:
    def test_reads_utf8_text(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("Feé\r\nH\n".encode())
        assert read_input_text(path, "thing") == "Feé\nH\n"

    def test_missing_keeps_not_found_message(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(UserInputError, match=f"^thing not found: {re.escape(str(missing))}$"):
            read_input_text(missing, "thing")

    def test_directory_names_path(self, tmp_path):
        with pytest.raises(UserInputError, match=f"cannot read thing {re.escape(str(tmp_path))}:"):
            read_input_text(tmp_path, "thing")

    def test_below_regular_file(self, tmp_path):
        (tmp_path / "f").write_text("x")
        with pytest.raises(UserInputError, match="cannot read thing .*f/g"):
            read_input_text(tmp_path / "f" / "g", "thing")

    def test_non_utf8_names_path_and_byte(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"abc\xe9\n")
        with pytest.raises(UserInputError, match=r"thing .*latin1.txt is not UTF-8 text \(byte 3\)"):
            read_input_text(path, "thing")

    def test_id_list_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("# kept\n a#0 \n\n  # note\nb#1\n")
        assert read_id_list(path, "ids") == ["a#0", "b#1"]


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_text(path, "résumé\n")
        assert path.read_bytes() == "résumé\n".encode()
        assert os.listdir(path.parent) == ["out.txt"]

    def test_directory_below_regular_file(self, tmp_path):
        (tmp_path / "run.ini").write_text("x")
        with pytest.raises(UserInputError, match="cannot create directory .*run.ini"):
            atomic_write_text(tmp_path / "run.ini" / "sub" / "x.svg", "<svg/>")

    def test_target_is_a_directory(self, tmp_path):
        (tmp_path / "out.txt").mkdir()
        with pytest.raises(UserInputError, match="cannot write .*out.txt"):
            atomic_write_text(tmp_path / "out.txt", "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_rename_removes_temp(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise PermissionError(13, "Permission denied", dst)
        monkeypatch.setattr(io_mod.os, "replace", fail)
        with pytest.raises(UserInputError, match="cannot write .*out.txt: Permission denied"):
            atomic_write_text(tmp_path / "out.txt", "x")
        assert os.listdir(tmp_path) == []

    def test_interrupt_removes_temp_and_propagates(self, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(io_mod.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(tmp_path / "out.txt", "x")
        assert os.listdir(tmp_path) == []


class TestCheckOutputDir:
    def test_creatable_and_existing_pass_creating_nothing(self, tmp_path):
        check_output_dir(tmp_path)
        check_output_dir(tmp_path / "new" / "deeper")
        assert os.listdir(tmp_path) == []

    def test_below_regular_file(self, tmp_path):
        (tmp_path / "run.ini").write_text("x")
        with pytest.raises(UserInputError, match="cannot create directory .*run.ini/sub/deeper: "
                                                 "Not a directory"):
            check_output_dir(tmp_path / "run.ini" / "sub" / "deeper")

    def test_regular_file_as_directory(self, tmp_path):
        (tmp_path / "run.ini").write_text("x")
        with pytest.raises(UserInputError, match="run.ini is not a directory"):
            check_output_dir(tmp_path / "run.ini")

    def test_unwritable_ancestor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_mod.os, "access", lambda path, mode: False)
        with pytest.raises(UserInputError, match=f"{re.escape(str(tmp_path))} is not writable"):
            check_output_dir(tmp_path / "new")

    def test_nul_byte_names_path(self, tmp_path):
        with pytest.raises(UserInputError, match="cannot create directory"):
            check_output_dir(str(tmp_path / "a\0b"))
