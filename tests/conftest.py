import pytest
from scipy.optimize import minimize as scipy_minimize


@pytest.fixture
def polish_calls(monkeypatch):
    """``polish_calls(module)`` records each call of ``module.minimize`` in the list it returns:
    (value at the start, polished value, scipy BFGS value from the same start)."""

    def install(module):
        calls, real = [], module.minimize

        def recorder(fun, x0, args=()):
            res = real(fun, x0, args)

            def one(x):
                f, g = fun(x[None], *args)
                return f[0], g[0]

            ref = scipy_minimize(one, x0, jac=True, method="BFGS", options={"gtol": 1e-10})
            calls.append((one(x0)[0], res.fun, ref.fun))
            return res

        monkeypatch.setattr(module, "minimize", recorder)
        return calls

    return install
