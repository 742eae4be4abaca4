"""`python -m qconsist`: the qconsist command."""
from qconsist.cli import main

raise SystemExit(main())
