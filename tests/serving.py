"""Submit-then-drain for tests that run a list of requests at once."""


def run_requests(service, requests):
    """Submit ``requests`` to ``service``'s scheduler and drain exactly
    them; outcomes come back in submission order."""
    scheduler = service.scheduler
    return scheduler.drain([scheduler.submit(request)
                            for request in requests])
