"""Adam optimizer as whole-buffer passes over one flat parameter buffer."""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError


class AdamState:
    """One flat buffer of parameter values, its first/second moments and the step counter.

    ``params`` maps each parameter's name to its leaf tensor.  Their values are
    copied into ``values`` in order, and each parameter's ``values`` becomes a
    view of its slice, so an update of the buffer updates every parameter.
    Defaults follow the usual convention: beta1=0.9, beta2=0.999, eps=1e-8.
    ``lr`` is mutable so a schedule can adjust it between steps.
    """

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.params = dict(params)
        self.values = np.concatenate([p.values.ravel() for p in self.params.values()])
        lo = 0
        for p in self.params.values():
            p.values = self.values[lo : lo + p.values.size].reshape(p.values.shape)
            lo += p.values.size
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of the whole buffer in place; gradients are cleared.

    The gradient and scratch buffers live for this call only, so they are not
    resident while the next step's tape is built.
    """
    for name, p in state.params.items():
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {name} has no gradient")
        if p.values.base is not state.values:
            raise ContractError(f"adam_step: parameter {name} was rebound and no longer "
                                "views the optimizer's buffer")
    g = np.concatenate([p.grad.ravel() for p in state.params.values()])
    for p in state.params.values():
        p.grad = None
    scratch = np.empty_like(g)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=scratch)
    v *= b2
    g *= g
    v += np.multiply(g, 1.0 - b2, out=g)
    np.divide(m, 1.0 - b1**t, out=scratch)  # m_hat
    scratch *= state.lr
    np.divide(v, 1.0 - b2**t, out=g)  # v_hat
    np.sqrt(g, out=g)
    g += state.eps
    scratch /= g
    state.values -= scratch
