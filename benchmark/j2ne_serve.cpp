// j2ne_serve — the J2NE server under benchmark, as a process of its own.
//
// One deployment config for every workload: 2 decode workers, 1 event-loop
// shard, a 256-job admission queue and a 64 MiB decoded-result cache; every
// other field keeps its library default.  Protocol with the benchmark:
//
//   stdout  "port <n>"          once the listener is bound
//   stdin   any line            -> one JSON snapshot line on stdout:
//                                  {"net":{server::stats()},
//                                   "service":<metrics().to_json()>}
//   stdin   EOF                 -> graceful drain (server::stop), exit 0
#include <runtime/net/server.hpp>

#include <cstdio>
#include <iostream>
#include <string>

int main()
{
    runtime::net::server_config cfg;
    cfg.service.workers = 2;
    cfg.service.queue_capacity = 256;
    cfg.service.cache_bytes = 64u << 20;
    cfg.shards = 1;

    runtime::net::server srv{cfg};
    srv.start();
    std::printf("port %u\n", static_cast<unsigned>(srv.port()));
    std::fflush(stdout);

    std::string line;
    while (std::getline(std::cin, line)) {
        const auto s = srv.stats();
        std::printf(
            "{\"net\":{\"connections_accepted\":%llu,\"frames_in\":%llu,"
            "\"responses_out\":%llu,\"bytes_in\":%llu,\"bytes_out\":%llu,"
            "\"batches\":%llu,\"batched_jobs\":%llu,\"bad_frames\":%llu,"
            "\"slow_reader_closed\":%llu,\"progressive_streams\":%llu,"
            "\"layer_frames_out\":%llu,\"streams_cancelled\":%llu},"
            "\"service\":%s}\n",
            static_cast<unsigned long long>(s.connections_accepted),
            static_cast<unsigned long long>(s.frames_in),
            static_cast<unsigned long long>(s.responses_out),
            static_cast<unsigned long long>(s.bytes_in),
            static_cast<unsigned long long>(s.bytes_out),
            static_cast<unsigned long long>(s.batches),
            static_cast<unsigned long long>(s.batched_jobs),
            static_cast<unsigned long long>(s.bad_frames),
            static_cast<unsigned long long>(s.slow_reader_closed),
            static_cast<unsigned long long>(s.progressive_streams),
            static_cast<unsigned long long>(s.layer_frames_out),
            static_cast<unsigned long long>(s.streams_cancelled),
            srv.service().metrics().to_json().c_str());
        std::fflush(stdout);
    }
    srv.stop();
    return 0;
}
