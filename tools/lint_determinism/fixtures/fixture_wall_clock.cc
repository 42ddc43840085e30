// Fixture: wall-clock reads the wall-clock rule must catch.
#include <chrono>
#include <ctime>

long stamps()
{
    auto a = std::chrono::steady_clock::now();
    auto b = std::chrono::system_clock::now();
    auto c = std::chrono::high_resolution_clock::now();
    std::time_t t = time(nullptr);
    return a.time_since_epoch().count() + b.time_since_epoch().count() +
           c.time_since_epoch().count() + long(t);
}

// Aliases hide the clock from the ::now pattern, so the alias is flagged.
using Clock = std::chrono::steady_clock;
typedef std::chrono::system_clock WallClock;
using Precise = std::chrono :: high_resolution_clock;
long aliased() { return Clock::now().time_since_epoch().count(); }
