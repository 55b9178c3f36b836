"""Quantum extreme learning machine regression toolkit.

A small state-vector simulator, hardware-efficient encoders, four fixed
quantum reservoirs and a least-squares readout, plus a synthetic
elevator-traffic benchmark and the statistical harness to compare them.
"""
from .elevator import (BuildingConfig, Dataset, FeatureWindow, Passenger,
                       TrafficProfile, generate_traffic, select_features,
                       simulate, simulate_day, windowize)
from .harness import (ExperimentConfig, RankingTable, run_rq1_sweep,
                      run_rq2_comparison, run_rq3_baseline)
from .qelm import (EncoderSpec, NormalizationParams, Pipeline, ReadoutModel,
                   Reservoir, ReservoirSpec, apply_normalization,
                   build_encoder, build_reservoir, fit_normalization,
                   fit_readout, qelm_train)
from .quantum import (GateOp, IsingParams, StateVector, apply_dense_unitary,
                      apply_gate, expectation_pauli, haar_unitary,
                      ising_unitary, new_state, sample_ising_params)
from .stats import (ComparisonReport, RunResults, amse, cohens_d_one_sample,
                    fit_regression_tree, holm_bonferroni, kruskal_wallis,
                    mann_whitney_u, mse, predict_tree, vargha_delaney_a12,
                    wilcoxon_one_sample)

__version__ = "0.1.0"
