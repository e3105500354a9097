import dynosc
from dynosc import operators, oracle, states

# The one-frame layer over the array calls: none of it may be exported again.
RETIRED = ("WaveFrame", "sample_frame", "FirstOrderOperator", "OperatorReport",
           "apply_hamiltonian", "apply_ladder", "apply_invariant",
           "invariant_estimate", "commutator_check", "ResidualReport",
           "ComovingFrame", "dft_momentum", "idft_position",
           "quadrature_moment")


def test_public_names_resolve_and_retired_names_do_not():
    assert len(set(dynosc.__all__)) == len(dynosc.__all__)
    missing = [name for name in dynosc.__all__ if not hasattr(dynosc, name)]
    assert missing == []
    for module in (dynosc, states, operators, oracle):
        assert [name for name in RETIRED if hasattr(module, name)] == []
