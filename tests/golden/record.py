"""Rewrite ``manifest.json`` from the program as it stands: one sha256 per case
of ``cases.json``, over its exit code, stdout, stderr and sweep file (see
``golden_digests`` in ``tests/conftest.py``), and print each case that moved.
The manifest also names the Python release and the OpenBLAS kernel (``blas_core``)
it was recorded under.

Run it only for a change that alters output bytes on purpose, and list each
moved case in CHANGES.md with the reason:

    python tests/golden/record.py
"""
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from conftest import blas_core, golden_digests  # noqa: E402


def main() -> None:
    cases = json.loads((HERE / "cases.json").read_text())
    manifest = HERE / "manifest.json"
    old = json.loads(manifest.read_text())["digests"] if manifest.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(cases, tmp)
    python, core = "{}.{}".format(*sys.version_info[:2]), blas_core()
    manifest.write_text(json.dumps({"python": python, "blas_core": core, "digests": digests},
                                   indent=1) + "\n")
    for case_id, digest in digests.items():
        if old.get(case_id) != digest:
            print("moved" if case_id in old else "new", case_id)
    print(f"{len(digests)} cases recorded under Python {python} on OpenBLAS core {core}")


if __name__ == "__main__":
    main()
