"""``tests/never_called.py`` keys each function by its sources as they
were before the traced run, so an edit made during the run moves none."""

import shutil
import textwrap

from tests import never_called


def test_an_edit_during_the_run_moves_no_function(tmp_path):
    package = tmp_path / "copied"
    package.mkdir()
    source = package / "location.py"
    shutil.copy(never_called.PACKAGE / "ir" / "location.py", source)
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(f"""\
        import importlib.util
        import pathlib


        def test_probe():
            path = pathlib.Path({str(source)!r})
            spec = importlib.util.spec_from_file_location("copied_location",
                                                          path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assert module.Location("f", 1, 2).describe() == "f:1:2"
            path.write_text("# edited during the run\\n\\n" + path.read_text())
        """))
    status, defined, ran = never_called.traced_run([str(probe)], package)
    assert status == 0
    called = {name for key, name in defined.items() if key in ran}
    assert {"copied.location:Location.__init__",
            "copied.location:Location.describe"} <= called
    # Read after the run, the edited file keys every function two lines
    # lower, and none of them would count as called.
    after = never_called.defined_functions(package)
    assert sorted(after.values()) == sorted(defined.values())
    assert not any(key in ran for key in after)
