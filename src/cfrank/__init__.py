"""Counterfactual user-preference simulation for top-N recommendation.

Learns stochastic impression/selection models of an observed log, abducts
their exogenous noise posteriors, intervenes on recommendation lists with a
learned Gaussian policy, filters the simulated feedback by confidence, and
retrains target ranking models on the augmented data. Sample-complexity
bounds for the voting and noisy-ERM guarantees ship with Monte-Carlo
verification.

Each name is imported from its module (`from cfrank import rankers`). The
package itself imports nothing, so importing it loads no numpy: the
`cfrank` command (`cfrank.__main__`) sets its BLAS thread default before
that happens.
"""
