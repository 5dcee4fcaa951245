import sys
from pathlib import Path

# the benchmark's modules sit one directory up and are not a package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
