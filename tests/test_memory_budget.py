"""One capture-scale training sample fits in a 4 GiB address space.

The CLI default model (the nine-layer backbone, float64, two bodies, 300
frames, 25 joints) must train on a machine with a few GB of memory.  The
child process caps its own address space before importing numpy, so any
regression in what the forward keeps alive for backward shows up here as
a MemoryError rather than as swapping.  It sets the heap policy that
`tegraph.cli.main` sets, so the budget holds as the CLI runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import tegraph

LIMIT_BYTES = 4 * 2**30

CHILD = f"""
import json, resource
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT_BYTES}, {LIMIT_BYTES}))
import numpy as np
from tegraph.cli import _keep_heap_mapped
from tegraph.model import Network, backbone_config
from tegraph.tensor import Tape

_keep_heap_mapped()
network = Network(backbone_config(60))
config = network.config
shape = (3, config.fixed_length, config.num_joints, config.max_bodies)
sample = np.random.default_rng(0).normal(size=shape)
network.set_training(True)
with Tape() as tape:
    loss = network.loss(network.forward_sample(sample), 7)
tape.backward(loss)
grads = [p.grad for p in network.parameters()]
print(json.dumps({{
    "dtype": str(grads[0].dtype),
    "finite": all(bool(np.isfinite(g).all()) for g in grads),
    "touched": sum(bool(g.any()) for g in grads),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}}))
"""


def test_default_backbone_trains_one_sample_under_4_gib():
    src = str(Path(tegraph.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["dtype"] == "float64"
    assert result["finite"] and result["touched"] > 0
    assert result["peak_rss_kb"] * 1024 < LIMIT_BYTES
