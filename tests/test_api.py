"""The public API of exseq: the names exseq exports and the signature of
each exported function and class.  A change to either is an API change;
edit the lists below with it and record it in CHANGES.md."""
import enum
import inspect

import exseq

PUBLIC_NAMES = [
    'DCollection', 'DObj', 'ExcSeq', 'MutationError', 'MutationSign',
    'NCTuple', 'PeriodicConfig', 'QuiverDescriptor', 'QuiverError',
    'RootSystemData', 'WeylGroup', 'WindowSpec',
    'build_root_system', 'class_of', 'collection', 'config_to_riedtmann',
    'config_to_silting', 'derived', 'enumerate_complete_sequences',
    'enumerate_configs', 'enumerate_kind', 'enumerate_m_nc',
    'enumerate_silting', 'ext_dim', 'ext_projectives', 'f_power',
    'f_translate', 'f_translate_inv', 'fuss_catalan', 'generate_weyl',
    'hom_dim', 'inj', 'is_combinatorial_configuration', 'is_exceptional',
    'is_hom_leq0_config', 'is_injective', 'is_m_cluster_tilting',
    'is_m_config', 'is_projective', 'is_silting', 'make_periodic', 'mu_rev',
    'mu_rev_inverse', 'mutate', 'nu', 'nu_inv', 'obj', 'object_of_class',
    'order_config', 'order_silting', 'phi', 'phi_inverse', 'proj',
    'reflection_matrix', 'riedtmann', 'riedtmann_to_config', 'roots', 'rotate',
    'sequences', 'shift', 'silting', 'silting_to_config', 'simple', 'tau',
    'tau_inv', 'torsion_window', 'weyl', 'window_objects',
]

SIGNATURES = {
    'DCollection': "(objects: 'tuple[DObj, ...]') -> None",
    'DObj': "(rs: 'RootSystemData', root: 'int', degree: 'int') -> None",
    'PeriodicConfig': "(seeds: 'DCollection') -> None",
    'QuiverDescriptor':
        "(family: 'str', rank: 'int', "
        "arrows: 'tuple[tuple[int, int], ...]' = ()) -> None",
    'RootSystemData': "(quiver: 'QuiverDescriptor')",
    'WeylGroup': "(rs: 'RootSystemData')",
    'WindowSpec':
        "(lo: 'int', hi: 'int', plus_injectives: 'bool' = False, "
        "minus_projectives: 'bool' = False) -> None",
    'build_root_system': "(q: 'QuiverDescriptor') -> 'RootSystemData'",
    'class_of': "(x: 'DObj') -> 'DimVector'",
    'collection': "(objs: 'Iterable[DObj]') -> 'DCollection'",
    'config_to_riedtmann': "(col: 'DCollection') -> 'PeriodicConfig'",
    'config_to_silting': "(col: 'DCollection') -> 'DCollection'",
    'enumerate_complete_sequences': "(rs: 'RootSystemData') -> 'list[ExcSeq]'",
    'enumerate_configs':
        "(rs: 'RootSystemData', w: 'WindowSpec') -> 'list[DCollection]'",
    'enumerate_kind':
        "(rs: 'RootSystemData', kind: 'str', m: 'int') -> 'list[DCollection]'",
    'enumerate_m_nc': "(group: 'WeylGroup', m: 'int') -> 'list[NCTuple]'",
    'enumerate_silting':
        "(rs: 'RootSystemData', w: 'WindowSpec') -> 'list[DCollection]'",
    'ext_dim': "(x: 'DObj', y: 'DObj', i: 'int') -> 'int'",
    'ext_projectives':
        "(a_window: 'frozenset[DObj]', w: 'WindowSpec') -> 'frozenset[DObj]'",
    'f_power': "(x: 'DObj', k: 'int') -> 'DObj'",
    'f_translate': "(x: 'DObj') -> 'DObj'",
    'f_translate_inv': "(x: 'DObj') -> 'DObj'",
    'fuss_catalan': "(rs: 'RootSystemData', m: 'int') -> 'int'",
    'generate_weyl': "(rs: 'RootSystemData') -> 'WeylGroup'",
    'hom_dim': "(x: 'DObj', y: 'DObj') -> 'int'",
    'inj':
        "(rs: 'RootSystemData', vertex: 'int', degree: 'int' = 0) -> 'DObj'",
    'is_combinatorial_configuration':
        "(p: 'PeriodicConfig', probe_window: 'WindowSpec') -> 'bool'",
    'is_exceptional': "(items: 'Iterable[DObj]') -> 'bool'",
    'is_hom_leq0_config': "(col: 'DCollection') -> 'bool'",
    'is_injective': "(x: 'DObj') -> 'bool'",
    'is_m_cluster_tilting': "(col: 'DCollection', m: 'int') -> 'bool'",
    'is_m_config': "(col: 'DCollection', m: 'int') -> 'bool'",
    'is_projective': "(x: 'DObj') -> 'bool'",
    'is_silting': "(col: 'DCollection') -> 'bool'",
    'make_periodic': "(seeds: 'DCollection') -> 'PeriodicConfig'",
    'mu_rev': "(seq: 'ExcSeq') -> 'tuple[ExcSeq, tuple[MutationSign, ...]]'",
    'mu_rev_inverse':
        "(seq: 'ExcSeq') -> 'tuple[ExcSeq, tuple[MutationSign, ...]]'",
    'mutate':
        "(seq: 'ExcSeq', i: 'int', "
        "direction: 'str' = 'right') -> 'tuple[ExcSeq, MutationSign]'",
    'nu': "(x: 'DObj') -> 'DObj'",
    'nu_inv': "(x: 'DObj') -> 'DObj'",
    'obj':
        "(rs: 'RootSystemData', dim: 'DimVector', "
        "degree: 'int' = 0) -> 'DObj'",
    'object_of_class':
        "(rs: 'RootSystemData', coords: 'DimVector', "
        "degree_hints: 'tuple[int, int]') -> 'DObj'",
    'order_config': "(col: 'DCollection') -> 'ExcSeq'",
    'order_silting': "(col: 'DCollection') -> 'ExcSeq'",
    'phi': "(group: 'WeylGroup', parts: 'NCTuple') -> 'DCollection'",
    'phi_inverse':
        "(group: 'WeylGroup', col: 'DCollection', m: 'int') -> 'NCTuple'",
    'proj':
        "(rs: 'RootSystemData', vertex: 'int', degree: 'int' = 0) -> 'DObj'",
    'reflection_matrix': "(rs: 'RootSystemData', root: 'int') -> 'WeylElt'",
    'riedtmann_to_config': "(p: 'PeriodicConfig') -> 'DCollection'",
    'rotate': "(seq: 'ExcSeq') -> 'ExcSeq'",
    'shift': "(x: 'DObj', k: 'int' = 1) -> 'DObj'",
    'silting_to_config': "(col: 'DCollection') -> 'DCollection'",
    'simple':
        "(rs: 'RootSystemData', vertex: 'int', degree: 'int' = 0) -> 'DObj'",
    'tau': "(x: 'DObj') -> 'DObj'",
    'tau_inv': "(x: 'DObj') -> 'DObj'",
    'torsion_window':
        "(col: 'DCollection', w: 'WindowSpec') -> 'frozenset[DObj]'",
    'window_objects':
        "(rs: 'RootSystemData', w: 'WindowSpec') -> 'list[DObj]'",
}


def _pinned(obj) -> bool:
    """Functions, and classes other than enums and exceptions."""
    return inspect.isfunction(obj) or (
        inspect.isclass(obj) and not issubclass(obj, (Exception, enum.Enum)))


def test_public_names_are_pinned():
    assert sorted(exseq.__all__) == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    found = {name: str(inspect.signature(getattr(exseq, name)))
             for name in exseq.__all__ if _pinned(getattr(exseq, name))}
    assert found == SIGNATURES


# The public attributes of a WeylGroup.  Its elements are wide masks; the
# matrix of one is read through `matrix`, and the matrix tuple
# `reflections` is gone (the reflection along root r is the mask 1 << r).
WEYL_GROUP_ATTRIBUTES = [
    'abs_length', 'below_coxeter', 'coxeter', 'elements', 'identity',
    'matrix', 'rs',
]


def test_weyl_group_attributes_are_pinned():
    rs = exseq.build_root_system(exseq.QuiverDescriptor.standard("A", 2))
    group = exseq.generate_weyl(rs)
    assert [n for n in dir(group) if not n.startswith("_")] == WEYL_GROUP_ATTRIBUTES
