"""Stand-in for ``python -m corelattice.cli`` that adds one to every reported count.

Only the self-tests use it, to show that a wrong output is counted as failed.
"""

import io
import re
import sys
from contextlib import redirect_stdout

from corelattice import cli

buffer = io.StringIO()
with redirect_stdout(buffer):
    code = cli.main(sys.argv[1:])
sys.stdout.write(re.sub(r'"count":(\d+)', lambda m: f'"count":{int(m.group(1)) + 1}', buffer.getvalue()))
sys.exit(code)
