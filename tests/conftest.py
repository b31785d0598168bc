import sys
from pathlib import Path

from hypothesis import settings

# allow cross-imports between test modules (e.g. the exhaustive oracle)
sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, so they cannot flake the
# suite; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
