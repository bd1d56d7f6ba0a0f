"""Newton-flow solvers for ``L v + g(v) = 0`` on finite-dimensional spaces.

The flow ``du/dt = -[I + (L+eps)^{-1} g'(u)]^{-1} (u + (L+eps)^{-1} g(u))``
drives the preconditioned residual down exactly like ``exp(-t)``; that law
doubles as a built-in integrator self-check.  For well-posed problems the
flow converges inside a certified trust ball; for rank-deficient monotone
problems a shift continuation recovers the minimal-norm solution.

The package re-exports nothing: every name is imported from its module.
Quick start::

    from dsmflow import problems, continuation

    bundle = problems.wellposed_cubic(dim=10)
    sol = continuation.solve_newton_flow(bundle.problem)
    print(sol.v, sol.flow.decay_deviation)
"""

__version__ = "0.1.0"
