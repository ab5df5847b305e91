// Copy-on-write hygiene, positive cases: the mutable MsgPayload::data()
// overload reached from a context that only reads — each call un-shares
// (copies) a shared buffer for nothing.

namespace cni_fix
{

unsigned char sink[64];

void
readViaMemcpySource(cni::NetMsg msg)
{
    std::memcpy(sink, msg.payload.data(), msg.payload.size()); // CNICHECK-EXPECT: cow-data
}

void
readIntoVector(cni::MsgPayload p)
{
    std::vector<unsigned char> v(p.data(), p.data() + p.size()); // CNICHECK-EXPECT: cow-data
    (void)v;
}

const unsigned char *
leakMutablePointer(cni::MsgPayload p)
{
    const unsigned char *q = p.data(); // CNICHECK-EXPECT: cow-data
    return q;
}

} // namespace cni_fix
