"""Network copies for tests: the package itself never copies a network."""

import copy

from subanneal.nn.layers import Network


def clone(net: Network) -> Network:
    """Structural copy with its own ``flat`` and no cached state."""
    out = Network([copy.copy(layer) for layer in net.layers], net.input_shape)
    out.clear_cache()
    return out
