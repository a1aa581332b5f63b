"""Benchmark artifacts: one ``BENCH_*.json`` file per benchmark module.

Each test merges its measurements under its own key, so a module's
tests can run in any order (or alone) and still leave one complete
artifact for CI to archive.
"""

import json
from pathlib import Path
from typing import Any, Union


def record(path: Union[str, Path], key: str, payload: Any) -> None:
    """Merge one test's measurements into the artifact at ``path``."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
