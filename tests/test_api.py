import skillnet


def test_public_names_exist_and_are_listed_once():
    assert [name for name in skillnet.__all__ if not hasattr(skillnet, name)] == []
    assert len(set(skillnet.__all__)) == len(skillnet.__all__)
