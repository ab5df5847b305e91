// Event-callback hygiene, negative space: value captures, `this`
// (devices outlive their events by construction), move init-captures,
// and by-reference lambdas that are invoked immediately rather than
// deferred. None of these may produce a diagnostic.

namespace cni_fix
{

void
valueCapturesAreFine(cni::EventQueue &eq)
{
    int x = 1;
    long y = 2;
    eq.scheduleIn(5, [x, y] { (void)x; (void)y; });
    eq.scheduleIn(6, [v = std::move(y)] { (void)v; });
}

struct Dev
{
    cni::EventQueue *eq;
    int state = 0;

    void arm() { eq->scheduleIn(1, [this] { state += 1; }); }
};

void
smallInlineFnIsFine()
{
    int n = 3;
    cni::Callback cb = [n] { (void)n; };
    cb();
}

int
immediateRefLambdaIsFine()
{
    int acc = 0;
    auto bump = [&acc] { acc += 1; };
    bump();
    return acc;
}

} // namespace cni_fix
