"""Desk-scale lab for piecewise rectified-flow distillation on 2D data."""

from .sched import (shift_sigma, build_base_schedule, sample_original,
                    sample_improved)
from .netcore import (MlpSpec, MlpParams, AdamState, TrainingError,
                      init_params, forward, backward, init_adam, adam_step,
                      save_params, load_params)
from .flow import (MixtureSpec, AnalyticField, LearnedField, TrainConfig,
                   SIGMA_FLOOR, default_benchmark, point_mass, interpolate,
                   analytic_velocity, ode_solve, train_flow_matching)
from .distill import (StageGrid, default_grid, rollout, train_student,
                      infer_few_step)
from .adv import (AdvConfig, init_discriminator, trajectory_states,
                  disc_loss, fm_loss, sample_timestep, train_adversarial)
from .diag import (w2_exact_small, energy_distance, energy_permutation_test,
                   teacher_trajectory_divergence, interstage_distance,
                   expected_velocity_residual)

__version__ = "0.1.0"
