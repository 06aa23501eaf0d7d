"""The tests import gentwistor from src/ (pyproject's pythonpath), and so do
the CLI processes they start: src/ leads their PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
