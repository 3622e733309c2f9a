// A future over decode_service::submit_async, for tests that wait on one job
// at a time: the completion fulfils a promise with the packed result, or
// with the job's error.  A completion that never ran leaves the promise
// broken (std::future_error on get()), one that ran twice throws from the
// second set_value — both visible to a test.
#pragma once

#include <runtime/service.hpp>

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <vector>

namespace test_support {

using packed_result = std::shared_ptr<const runtime::raw_image>;

/// Submit a copy of `cs` (or the moved-in vector) through submit_async.
inline std::future<packed_result> submit(runtime::decode_service& svc,
                                         std::vector<std::uint8_t> cs,
                                         const runtime::decode_options& opt = {})
{
    auto p = std::make_shared<std::promise<packed_result>>();
    auto fut = p->get_future();
    svc.submit_async(std::move(cs), opt, [p](packed_result img, std::exception_ptr err) {
        if (err)
            p->set_exception(std::move(err));
        else
            p->set_value(std::move(img));
    });
    return fut;
}

}  // namespace test_support
