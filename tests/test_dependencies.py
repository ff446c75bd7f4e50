import os
import subprocess
import sys
from pathlib import Path

import sisbox


def test_import_pulls_in_no_scipy():
    # importing scipy.signal alone used to cost ~1 s of every CLI call
    env = dict(os.environ)
    src = str(Path(sisbox.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, sisbox, sisbox.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
