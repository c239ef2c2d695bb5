"""Storage meter bookkeeping."""

from resflow.instrument import RetainedList, StorageMeter


def test_meter_tracks_peak():
    meter = StorageMeter()
    meter.retain(3)
    meter.release(1)
    meter.retain(2)
    assert meter.current == 4
    assert meter.peak == 4
    meter.release(4)
    assert meter.current == 0
    assert meter.peak == 4


def test_retained_list_reports_to_meter():
    meter = StorageMeter()
    chain = RetainedList(meter)
    for i in range(5):
        chain.append(i)
    assert meter.current == 5
    assert len(chain) == 5
    assert chain[2] == 2
    chain.drop_all()
    assert meter.current == 0
    assert meter.peak == 5


def test_retained_list_without_meter():
    chain = RetainedList()
    chain.append("a")
    chain.drop_all()
    assert len(chain) == 0
