// Event-callback hygiene, positive cases: by-reference captures handed
// to the scheduler family or an InlineFn (the frame is dead when the
// event fires), and a by-value capture past the 112-byte inline budget.

namespace cni_fix
{

void
capturesLocalByRef(cni::EventQueue &eq)
{
    int local = 0;
    eq.scheduleIn(3, [&local] { local += 1; }); // CNICHECK-EXPECT: dangling-capture
}

void
captureDefaultByRef(cni::EventQueue &eq)
{
    int a = 1;
    eq.scheduleAt(9, [&] { (void)a; }); // CNICHECK-EXPECT: dangling-capture
}

void
paramByRefToBarrier(int shard)
{
    cni::postBarrier(shard, [&shard](cni::Tick) { shard++; }); // CNICHECK-EXPECT: dangling-capture
}

void
inlineFnByRef()
{
    int n = 3;
    cni::Callback cb = [&n] { n--; }; // CNICHECK-EXPECT: dangling-capture
    cb();
}

void
oversizedByValue(cni::EventQueue &eq)
{
    std::array<char, 128> big{};
    eq.scheduleAt(10, [big] { (void)big; }); // CNICHECK-EXPECT: oversized-capture
}

} // namespace cni_fix
