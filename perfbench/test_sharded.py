"""The sharded workload finishes with no worker restarted (builds the
driver on first use, then takes about half a minute).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


class ShardedTest(unittest.TestCase):
    def test_sharded_run_has_no_worker_restarts(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sharded",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(result["metrics"]["shard.worker_restarts"]["value"], 0)
        self.assertGreater(result["metrics"]["shard.units"]["value"], 0)
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
