"""Write perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

The stored reference holds, for each ``paper_figures`` command, a summary of
every file it writes; the fig2 summary with its sign flipped, which the
negative control must fail against; and the check names ``validate``
reports. It was generated once from the seed sources. Regenerate it only
when a change is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402  (needs src on the path)
import ringecho.cli  # noqa: E402


def run_cli(argv: list[str], out_dir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ringecho.cli.main(argv + ["--out", str(out_dir)])
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")


def main() -> int:
    outputs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, argv in jobs.PAPER_COMMANDS.items():
            run_cli(argv, Path(tmp) / name)
            outputs[name] = jobs.summarize_dir(Path(tmp) / name)
        run_cli(["validate", "--rho", "0.75"], Path(tmp) / "validate")
        report = json.loads((Path(tmp) / "validate" / "validation_report.json").read_text())
    flipped = json.loads(json.dumps(outputs["figure_fig2"]))
    flipped["fig2.csv"]["column.dos"]["sum"] *= -1.0
    reference = {
        "outputs": outputs,
        "negative_control": flipped,
        "validate_checks": [c["name"] for c in report["checks"]],
    }
    jobs.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {jobs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
