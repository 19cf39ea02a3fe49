"""The committed golden manifest of CLI output bytes.

Every case of ``tests/golden/cases.json`` runs in process through
``qswitch.cli.main`` and must hash to its sha256 in ``manifest.json``
(``golden_digests`` in conftest). A change that alters bytes on purpose
re-records with ``python tests/golden/record.py``.
"""
import json
import sys

from conftest import GOLDEN, blas_core, golden_digests


def test_cli_output_matches_the_golden_manifest(tmp_path):
    cases = json.loads((GOLDEN / "cases.json").read_text())
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    recorded = manifest["digests"]
    assert [case["id"] for case in cases] == list(recorded)
    # usage, help and option errors are argparse's own text, which differs between
    # Python releases: those cases are compared under the recording Python only
    same_python = manifest["python"] == "{}.{}".format(*sys.version_info[:2])
    digests = golden_digests([c for c in cases if same_python or not c.get("argparse")], tmp_path)
    moved = [case_id for case_id, digest in digests.items() if digest != recorded[case_id]]
    # values that are zero or nearly so print other digits under another OpenBLAS kernel
    assert not moved, (f"{len(moved)} cases differ from the manifest, recorded on OpenBLAS core "
                       f"{manifest['blas_core']} and run on {blas_core()}: {moved}")
