"""tools/capture_outputs.py: one command's record, and the compare mode."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "capture_outputs", ROOT / "tools" / "capture_outputs.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


def test_record_normalises_the_work_path_and_hashes_written_files(tmp_path):
    (tmp_path / "input.csv").write_text("a\n")

    def run(argv):
        print(f"wrote {tmp_path}/{argv[0]}")
        print("note", file=sys.stderr)
        (tmp_path / argv[0]).write_text("x\n")
        return 3

    rec = capture._record(run, ["out.csv"], str(tmp_path))
    assert rec["exit"] == 3
    assert rec["stdout"] == capture._sha(b"wrote <work>/out.csv\n")
    assert rec["stderr"] == capture._sha(b"note\n")
    assert rec["files"] == {"out.csv": capture._sha(b"x\n")}


def test_record_keeps_an_uncaught_exception_as_the_outcome(tmp_path):
    def run(argv):
        print("partial")
        (tmp_path / "half.csv").write_text("y\n")
        raise OverflowError("too big")

    rec = capture._record(run, ["half.csv"], str(tmp_path))
    assert rec["exit"] == "exception OverflowError"
    assert rec["stdout"] == capture._sha(b"partial\n")
    assert rec["files"] == {"half.csv": capture._sha(b"y\n")}


def test_compare_names_each_difference():
    same = {"exit": 0, "stdout": "a", "stderr": "b", "files": {}}
    base = {"kept": same, "changed": same, "gone": same}
    new = {"kept": same, "changed": {**same, "stdout": "c"}, "added": same}
    assert capture.compare(base, base) == []
    assert capture.compare(base, new) == [
        "only in new: added",
        "differs in stdout: changed",
        "only in base: gone",
    ]


def _printer(text):
    def run(argv):
        print(text)
        return 0
    return run


def test_compare_names_the_keys_of_a_json_report_that_differ(tmp_path):
    base = capture._record(_printer('{"eq": 1, "gap": [1, 2], "foc": null}'), [], str(tmp_path))
    new = capture._record(_printer('{"eq": 1, "gap": [1, 3], "range": [0, 0]}'), [],
                          str(tmp_path))
    assert base["stdout_keys"]["eq"] == new["stdout_keys"]["eq"]
    assert capture.compare({"verify": base}, {"verify": new}) == [
        "differs in stdout [added range; removed foc; changed gap]: verify"]
    # A capture made before stdout was digested by key has no key digests;
    # where the bytes match, the commands do not differ.
    old_tool = {k: v for k, v in base.items() if k != "stdout_keys"}
    assert capture.compare({"verify": old_tool}, {"verify": base}) == []
    assert capture.compare({"verify": old_tool}, {"verify": new}) == [
        "differs in stdout: verify"]
    # Only a JSON object is digested by key.
    for text in ("[1, 2]", "wrote out.csv"):
        assert "stdout_keys" not in capture._record(_printer(text), [], str(tmp_path))


def test_compare_names_the_element_keys_of_a_list_of_objects_that_differ(tmp_path):
    probe = '{"beta": %s, "excess": %s, "status": "%s"}'
    base = capture._record(_printer('{"est": 9, "condition_trace": [%s, %s]}' % (
        probe % (1, 2, "local_max"), probe % (2, 3, "beaten"))), [], str(tmp_path))
    new = capture._record(_printer('{"est": 9, "condition_trace": [%s, %s, %s]}' % (
        probe % (1, 2, "step_cap"), probe % (2, 3.5, "beaten"), probe % (3, 4, "beaten"))),
        [], str(tmp_path))
    assert base["stdout_keys"]["condition_trace[1].beta"] == new["stdout_keys"][
        "condition_trace[1].beta"]
    assert capture.compare({"threshold": base}, {"threshold": new}) == [
        "differs in stdout [added condition_trace[2]; changed condition_trace[0].status, "
        "condition_trace[1].excess]: threshold"]
    assert capture.compare({"threshold": new}, {"threshold": base}) == [
        "differs in stdout [removed condition_trace[2]; changed condition_trace[0].status, "
        "condition_trace[1].excess]: threshold"]


def _writer(name, text):
    def run(argv):
        pathlib.Path(argv[0], name).write_text(text)
        return 0
    return run


def test_compare_names_the_keys_of_a_json_report_written_to_a_file(tmp_path):
    base = capture._record(_writer("ver.json", '{"eq": 1, "q": 0.5, "foc": 0}'),
                           [str(tmp_path)], str(tmp_path))
    new = capture._record(_writer("ver.json", '{"eq": 1, "q": 0.6, "gap": 0}'),
                          [str(tmp_path)], str(tmp_path))
    assert base["file_keys"]["ver.json"]["eq"] == new["file_keys"]["ver.json"]["eq"]
    assert capture.compare({"verify": base}, {"verify": new}) == [
        "differs in files [ver.json: added gap; removed foc; changed q]: verify"]
    # A file that is not a JSON object is digested whole only.
    csv = capture._record(_writer("t.csv", "f0,f1\n1,2\n"), [str(tmp_path)], str(tmp_path))
    assert "file_keys" not in csv and set(csv["files"]) == {"t.csv"}
    # Nor does a capture made before files were digested by key have any.
    old_tool = {k: v for k, v in base.items() if k != "file_keys"}
    assert capture.compare({"verify": old_tool}, {"verify": new}) == [
        "differs in files: verify"]


def test_readme_commands_are_the_tested_ones():
    from test_readme import COMMANDS

    assert capture._readme_commands() == COMMANDS


def test_surface_list_passes_every_option_of_every_subcommand():
    from supply_eq.cli import _build_parser

    subs = next(a for a in _build_parser()._actions if a.dest == "cmd").choices
    missing = [f"{cmd} {opt}" for cmd, sub in subs.items() for action in sub._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"
               and not any(argv[0] == cmd and opt in argv for argv in capture.SURFACE)]
    assert missing == []
