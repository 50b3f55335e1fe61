"""Every package module compiles with warnings turned into errors, so
an invalid string escape (a SyntaxWarning on Python 3.12+, slated to
become a hard error) fails here instead of on a future interpreter."""

import pathlib
import warnings

PKG = pathlib.Path(__file__).resolve().parent.parent / "feast_ray"


def test_package_compiles_warning_free():
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except (SyntaxError, Warning) as e:
                bad.append(f"{path.relative_to(PKG)}: {e}")
    assert not bad, "\n".join(bad)
