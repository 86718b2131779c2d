"""exseq: exact combinatorics of exceptional sequences for Dynkin quivers.

Silting objects, Hom<=0-configurations, m-cluster-tilting objects and
m-noncrossing partitions, together with the mutation bijections between
them, all in exact integer arithmetic.
"""
from .roots import (
    QuiverDescriptor, QuiverError, RootSystemData, build_root_system, fuss_catalan,
)
from .derived import (
    DObj, WindowSpec, class_of, ext_dim, f_power, f_translate,
    f_translate_inv, hom_dim, inj, is_injective, is_projective, nu, nu_inv,
    obj, object_of_class, proj, shift, simple, tau, tau_inv, window_objects,
)
from .sequences import (
    ExcSeq, MutationError, MutationSign, enumerate_complete_sequences,
    is_exceptional, mu_rev, mu_rev_inverse, mutate, rotate,
)
from .silting import (
    DCollection, collection, config_to_silting, enumerate_configs,
    enumerate_kind, enumerate_silting, is_hom_leq0_config, is_m_cluster_tilting,
    is_m_config, is_silting, order_config, order_silting, silting_to_config,
)
from .weyl import (
    NCTuple, WeylGroup, enumerate_m_nc, generate_weyl, phi, phi_inverse,
    reflection_matrix,
)
from .riedtmann import (
    PeriodicConfig, config_to_riedtmann, ext_projectives,
    is_combinatorial_configuration, make_periodic, riedtmann_to_config,
    torsion_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
