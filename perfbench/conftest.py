import sys

from hostenv import ROOT

# the benchmark imports taaclab from this checkout, never from an installed copy
sys.path.insert(0, str(ROOT / "src"))
