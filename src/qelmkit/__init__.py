"""Quantum extreme learning machine regression toolkit.

Hardware-efficient encoders, four fixed quantum reservoirs compiled to
stages over batched amplitude arrays (a dense matrix, Kronecker layers plus
a ring gather, spin-flip parity blocks, Householder reflectors, or a
gather; a batch may run through them as one transfer matrix instead), a
Pauli readout and a least-squares fit, plus a synthetic elevator-traffic
benchmark and the statistical harness to compare them.
"""
from .elevator import (BuildingConfig, Dataset, Passenger, TrafficProfile,
                       generate_traffic, select_features, simulate,
                       simulate_day, windowize)
from .harness import (ExperimentConfig, RankingTable, run_rq1_sweep,
                      run_rq2_comparison, run_rq3_baseline)
from .qelm import (EncoderSpec, NormalizationParams, Pipeline, ReadoutModel,
                   Reservoir, ReservoirSpec, apply_normalization,
                   build_reservoir, fit_normalization, fit_readout,
                   qelm_train)
from .quantum import (GateOp, IsingParams, haar_unitary, ising_unitary,
                      sample_ising_params)
from .stats import (ComparisonReport, RunResults, amse, cohens_d_one_sample,
                    fit_regression_tree, holm_bonferroni, kruskal_wallis,
                    mann_whitney_u, mse, predict_tree, vargha_delaney_a12,
                    wilcoxon_one_sample)

__version__ = "0.1.0"
