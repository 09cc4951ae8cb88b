"""Rewrite this platform's entry of report_digests.json from the current code.

    PYTHONPATH=src python tests/regen_report_digests.py

The entry's key is test_report_digests.KEY (numpy version and platform);
entries under other keys are kept.  Prints the corpus documents whose
outcome moved, which a change that moves bits lists in CHANGES.md.
"""

import json

from test_report_digests import DIGESTS, KEY, outcomes

stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
old, new = stored.get(KEY, {}), outcomes()
for name in sorted(old.keys() | new.keys()):
    if old.get(name) != new.get(name):
        print(f"moved: {name}")
stored[KEY] = new
DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"wrote {len(new)} outcomes under {KEY} to {DIGESTS.name}")
