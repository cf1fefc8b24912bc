"""The paper's Fig. 1: computing π with CodeDSL + TensorDSL.

CodeDSL fills a tensor with the Leibniz series from a tile-centric
perspective (each tile writes only its own shard); TensorDSL reduces the
series and multiplies by four with a global view.  The whole program is
*symbolically executed* once to build the dataflow graph and schedule, then
runs on the machine model.

Run:  python examples/pi_leibniz_dsl.py
"""

import numpy as np

from repro.codedsl import For, Select
from repro.machine import IPUDevice
from repro.tensordsl import TensorContext, Type

NUM_TILES = 8
N = 100_000

ctx = TensorContext(IPUDevice(tiles_per_ipu=NUM_TILES))

# Create a TensorDSL tensor.
x = ctx.tensor((N,), Type.FLOAT32)

# Each tile needs its shard's global offset to evaluate the series.
offsets = ctx.tensor(
    (NUM_TILES,),
    data=np.array(
        sorted(x.var.mapping[:, 1].tolist()),
        dtype=np.float32,
    ),
    tile_ids=list(range(NUM_TILES)),
)

# Fill the tensor with the Leibniz sequence using CodeDSL.
ctx.Execute(
    [x, offsets],
    lambda xs, off: For(
        0,
        xs.size,
        1,
        lambda i: xs.set(
            i, Select((i + off[0]) % 2 == 0, 1.0, -1.0) / (2 * (i + off[0]) + 1)
        ),
    ),
)

# Calculate pi from the Leibniz sequence using TensorDSL.
pi = (x.reduce() * 4).materialize()

# Fig. 1's conditional host print.
ctx.If(abs(pi - 3.141) < 0.001, lambda: ctx.print("We found pi!"))

engine = ctx.run()

value = float(pi.value())
cycles = ctx.device.profiler.total_cycles
print(f"pi ≈ {value:.6f}  (error {abs(value - np.pi):.2e})")
print(f"modeled IPU cycles: {cycles}  ({ctx.device.seconds() * 1e6:.1f} µs)")
assert abs(value - np.pi) < 1e-3
