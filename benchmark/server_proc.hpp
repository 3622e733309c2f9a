// server_proc.hpp — one spawned j2ne_serve process.
//
// The server runs as its own process so its CPU time and peak RSS can be read
// from /proc without the load generator's share, and so each workload starts
// from a cold heap and an empty cache.  The child dies with the benchmark
// (PR_SET_PDEATHSIG), and the destructor always reaps it.
#pragma once

#include <cstdint>
#include <string>
#include <sched.h>
#include <sys/types.h>

namespace bench {

class server_proc {
public:
    /// Spawn `exe`, confined to `cpus` when given, and wait (up to 10 s) for
    /// its "port <n>" line.  Throws std::runtime_error on failure.
    server_proc(const std::string& exe, const cpu_set_t* cpus);
    ~server_proc();

    server_proc(const server_proc&) = delete;
    server_proc& operator=(const server_proc&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Ask for one counter snapshot; returns the JSON line.
    [[nodiscard]] std::string snapshot();

    /// utime + stime of the whole process, in seconds.
    [[nodiscard]] double cpu_s() const;
    /// Peak resident set (VmHWM), in MiB.
    [[nodiscard]] double vm_hwm_mib() const;

    /// Close stdin (graceful drain) and reap.  Returns the exit status, or -1
    /// when the process had to be killed.  Idempotent.
    int stop();

private:
    [[nodiscard]] std::string read_line(int timeout_ms);

    pid_t pid_ = -1;
    int to_child_ = -1;
    int from_child_ = -1;
    std::uint16_t port_ = 0;
    std::string buf_;
    int status_ = 0;
};

/// Find a number by key in a flat-enough JSON text: the first `"key":` is
/// taken.  Returns 0 when absent.
[[nodiscard]] double json_number(const std::string& json, const char* key);

/// Find a string value by key (first `"key":"..."`); empty when absent.
[[nodiscard]] std::string json_string(const std::string& json, const char* key);

}  // namespace bench
