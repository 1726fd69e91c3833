"""One device's passes, run the way the library runs them: with a device axis.

``DeviceNetwork.forward`` and ``backward`` take a
:class:`~hetsim.topology.DeviceStack`, ``DeviceNetwork.predict`` and every
layer a store over rows, and their batches carry a leading device axis.
These helpers run one device that way, on a stack of one
(``DeviceStack([net])``, its parameters in ``stores[0]``) or over its 1-D
store's one row (``ParamStore.row``), and take the axis off again, for
tests that check one device's output or gradients.
"""
import numpy as np

from hetsim.topology import DeviceStack


def one_device(net, shared_rng=None, local_rng=None, dtype=np.float64, flat=None):
    """``DeviceStack([net])``, its one store initialized by ``net.init_store``
    from the generators, or holding ``flat``."""
    stack = DeviceStack([net], dtype)
    if flat is not None:
        stack.stores[0].set_flat(flat)
    else:
        net.init_store(stack.stores[0], shared_rng, local_rng)
    return stack


def forward_alone(stack, x, mode="eval", rng=None):
    """The output of the stack of one ``stack`` for the batch ``x``, and the
    pass's cache; ``rng`` is the device's one generator."""
    out, cache = stack.networks[0].forward(stack, np.asarray(x)[None], mode,
                                           None if rng is None else [rng])
    return out[0], cache


def backward_alone(stack, cache, dy, from_logits=False):
    """The gradient store for the cache of a :func:`forward_alone` pass over
    ``stack`` and its upstream gradient ``dy``."""
    grads, = stack.networks[0].backward(cache, np.asarray(dy)[None], stack, from_logits)
    return grads


def predict_alone(net, store, x):
    """``net.predict`` on ``store``'s one row for the batch ``x``."""
    return net.predict(store.row(), np.asarray(x)[None])[0]


def _row(store):
    return None if store is None else store.row()


class LayerAlone:
    """``layer``'s forward and backward on one device's 1-D store and a batch
    without the device axis: run on the store's one row, ``rng`` that row's
    generator, with the axis put on and taken off again."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, store, key, x, train, rng):
        y, cache = self.layer.forward(_row(store), key, np.asarray(x)[None], train,
                                      None if rng is None else [rng])
        return y[0], cache

    def backward(self, store, key, cache, dy, grads):
        return self.layer.backward(_row(store), key, cache, np.asarray(dy)[None],
                                   _row(grads))[0]
