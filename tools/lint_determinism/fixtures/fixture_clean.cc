// Fixture: mentions of rand() and clocks in comments and strings, and
// names that only contain an engine's name, must not trip the scanner.
#include <chrono>
#include <string>

// Aliasing a clock's time_point type reads no clock.
using Stamp = std::chrono::steady_clock::time_point;

/* block comment: srand(1); std::random_device; steady_clock::now() */
std::string docs()
{
    std::string s = "call rand() then time(nullptr)";
    s += 'x';
    int mt19937_calls = 0, Mt19937_64 = 0;
    s += std::to_string(mt19937_calls + Mt19937_64);
    const char *raw = R"(unordered_map<int,int> and gettimeofday)";
    return s + raw; // rand(), clock_gettime in a line comment
}
