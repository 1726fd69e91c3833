"""One device's network pass, as the stack of one over its store.

``DeviceNetwork.forward`` and ``backward`` take a
:class:`~hetsim.topology.DeviceStack`, whose batches carry a leading
device axis. These helpers run one device that way and take the axis off
again, for tests that check one device's output or gradients.
"""
import numpy as np

from hetsim.topology import DeviceStack


def forward_alone(net, store, x, mode="eval", rng=None, force_branch_drop=False):
    """``net``'s output on ``store`` for the batch ``x``, and the pass's cache;
    ``rng`` is the device's one generator."""
    out, cache = net.forward(DeviceStack.alone(net, store), np.asarray(x)[None], mode,
                             None if rng is None else [rng], force_branch_drop)
    return out[0], cache


def backward_alone(net, cache, dy, store, from_logits=False):
    """The gradient store for the cache of a :func:`forward_alone` pass over
    ``store`` and its upstream gradient ``dy``, from a new stack of one."""
    grads, = net.backward(cache, np.asarray(dy)[None], DeviceStack.alone(net, store),
                          from_logits)
    return grads
