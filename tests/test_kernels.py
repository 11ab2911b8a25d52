from thermoflux._parallel import map_slots, thread_count


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("THERMOFLUX_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("THERMOFLUX_THREADS", "7")
    assert thread_count() == 7
    monkeypatch.setenv("THERMOFLUX_THREADS", "0")
    assert thread_count() == 1


def test_map_slots_order_independent_of_threads(monkeypatch):
    def fn(i):
        return i * i

    monkeypatch.setenv("THERMOFLUX_THREADS", "1")
    seq = map_slots(fn, 20)
    monkeypatch.setenv("THERMOFLUX_THREADS", "5")
    par = map_slots(fn, 20)
    assert seq == par == [i * i for i in range(20)]
