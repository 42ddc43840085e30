// Fixture: every raw-RNG spelling the raw-rng rule must catch.
#include <cstdlib>
#include <random>

int noise()
{
    std::srand(42);
    int a = std::rand();
    std::random_device rd;
    double d = drand48();
    std::mt19937 e32(1);
    std::mt19937_64 e64(2);
    std::minstd_rand0 m0(3);
    std::minstd_rand m1(4);
    std::ranlux48_base r48(5);
    std::knuth_b kb(6);
    std::default_random_engine engine(7);
    return a + int(rd()) + int(d);
}
