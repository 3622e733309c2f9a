#include "server_proc.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace bench {

server_proc::server_proc(const std::string& exe, const cpu_set_t* cpus)
{
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) < 0) throw std::runtime_error{"pipe2 failed"};
    if (::pipe2(out, O_CLOEXEC) < 0) {
        ::close(in[0]);
        ::close(in[1]);
        throw std::runtime_error{"pipe2 failed"};
    }
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
        // Async-signal-safe calls only between fork and exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        if (cpus) ::sched_setaffinity(0, sizeof *cpus, cpus);
        ::dup2(in[0], STDIN_FILENO);
        ::dup2(out[1], STDOUT_FILENO);
        ::execl(exe.c_str(), exe.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    if (pid_ < 0) {
        ::close(in[1]);
        ::close(out[0]);
        throw std::runtime_error{"fork failed"};
    }
    to_child_ = in[1];
    from_child_ = out[0];
    try {
        const std::string line = read_line(10000);
        unsigned p = 0;
        if (std::sscanf(line.c_str(), "port %u", &p) != 1 || p == 0 || p > 65535)
            throw std::runtime_error{"j2ne_serve: unexpected first line: " + line};
        port_ = static_cast<std::uint16_t>(p);
    } catch (...) {
        stop();
        throw;
    }
}

server_proc::~server_proc()
{
    stop();
}

std::string server_proc::read_line(int timeout_ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto nl = buf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return line;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        if (left <= 0) throw std::runtime_error{"j2ne_serve: no reply within timeout"};
        pollfd pfd{from_child_, POLLIN, 0};
        const int r = ::poll(&pfd, 1, static_cast<int>(left));
        if (r < 0 && errno != EINTR)
            throw std::runtime_error{"poll on j2ne_serve failed"};
        if (r <= 0) continue;
        char tmp[8192];
        const ssize_t n = ::read(from_child_, tmp, sizeof tmp);
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (n <= 0) throw std::runtime_error{"j2ne_serve exited unexpectedly"};
        buf_.append(tmp, static_cast<std::size_t>(n));
    }
}

std::string server_proc::snapshot()
{
    const char nl = '\n';
    if (::write(to_child_, &nl, 1) != 1)
        throw std::runtime_error{"j2ne_serve: snapshot request failed"};
    return read_line(10000);
}

double server_proc::cpu_s() const
{
    std::ifstream f{"/proc/" + std::to_string(pid_) + "/stat"};
    std::string s{std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15 (clock ticks).
    const auto rp = s.rfind(')');
    if (rp == std::string::npos) return 0.0;
    std::istringstream rest{s.substr(rp + 1)};
    std::string tok;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    for (int field = 3; rest >> tok && field <= 15; ++field) {
        if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
        if (field == 15) stime = std::strtoull(tok.c_str(), nullptr, 10);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double server_proc::vm_hwm_mib() const
{
    std::ifstream f{"/proc/" + std::to_string(pid_) + "/status"};
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

int server_proc::stop()
{
    if (pid_ <= 0) return status_;
    if (to_child_ >= 0) ::close(to_child_);  // EOF: the server drains and exits
    to_child_ = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    int st = 0;
    pid_t r = 0;
    while ((r = ::waitpid(pid_, &st, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (r == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &st, 0);
        status_ = -1;
    } else {
        status_ = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }
    if (from_child_ >= 0) ::close(from_child_);
    from_child_ = -1;
    pid_ = -1;
    return status_;
}

double json_number(const std::string& json, const char* key)
{
    const std::string pat = std::string{"\""} + key + "\":";
    const auto at = json.find(pat);
    if (at == std::string::npos) return 0.0;
    return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

std::string json_string(const std::string& json, const char* key)
{
    const std::string pat = std::string{"\""} + key + "\":\"";
    const auto at = json.find(pat);
    if (at == std::string::npos) return {};
    const auto b = at + pat.size();
    const auto e = json.find('"', b);
    return e == std::string::npos ? std::string{} : json.substr(b, e - b);
}

}  // namespace bench
