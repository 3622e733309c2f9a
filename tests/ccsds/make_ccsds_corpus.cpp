// Regenerates the golden corpus under tests/ccsds/corpus/ and prints the
// FNV-1a hash of each decoded cube — paste those into test_ccsds_golden.cpp
// when the stream format changes on purpose.
//
//   ./ccsds_corpus_gen <output-dir>
//
// The cubes come from make_test_image (deterministic by seed) per the specs
// in corpus_specs.hpp, so the corpus is fully reproducible from source alone.
#include "corpus_specs.hpp"

#include <runtime/hash.hpp>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

int main(int argc, char** argv)
{
    const std::string dir = argc > 1 ? argv[1] : "tests/ccsds/corpus";
    for (const auto& s : ccsds_corpus::k_specs) {
        const std::vector<std::uint8_t> cs = ccsds::encode(s.src.make(), s.params);
        std::ofstream out{dir + "/" + s.file, std::ios::binary};
        out.write(reinterpret_cast<const char*>(cs.data()),
                  static_cast<std::streamsize>(cs.size()));
        const codec::image img = ccsds::decode(cs);
        std::printf("%-28s %6zu bytes  fnv1a=0x%016llXull\n", s.file, cs.size(),
                    static_cast<unsigned long long>(runtime::fnv1a_image(img)));
    }
    return 0;
}
